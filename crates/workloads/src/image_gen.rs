//! Synthetic image generators for the VOC / ImageNet / CIFAR-10-like
//! pipelines: each class is an oriented sinusoidal texture (distinct
//! frequency and orientation) plus noise. Texture classes exercise exactly
//! the features SIFT/convolution pipelines extract — gradient orientation
//! statistics — so pipeline accuracy is meaningfully above chance if and
//! only if the featurization works.

use keystone_dataflow::collection::DistCollection;
use keystone_linalg::rng::XorShiftRng;
use keystone_ops::image::Image;

/// Synthetic image dataset configuration.
#[derive(Debug, Clone)]
pub struct ImageDatasetSpec {
    /// Number of images.
    pub n: usize,
    /// Image edge (square images).
    pub size: usize,
    /// Channels (3 for VOC/ImageNet/CIFAR).
    pub channels: usize,
    /// Number of texture classes.
    pub classes: usize,
    /// Additive noise level relative to unit texture amplitude.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
    /// Partitions.
    pub partitions: usize,
}

impl ImageDatasetSpec {
    /// VOC-like: small dataset of larger images, 20 classes.
    pub fn voc_like(n: usize, size: usize) -> Self {
        ImageDatasetSpec {
            n,
            size,
            channels: 3,
            classes: 20,
            noise: 0.4,
            seed: 0x0C,
            partitions: 8,
        }
    }

    /// CIFAR-like: 32×32×3, 10 classes.
    pub fn cifar_like(n: usize) -> Self {
        ImageDatasetSpec {
            n,
            size: 32,
            channels: 3,
            classes: 10,
            noise: 0.5,
            seed: 0xC1F,
            partitions: 8,
        }
    }

    fn class_params(&self, class: usize) -> (f64, f64, f64) {
        // Orientation in [0, π), frequency, phase-per-channel factor.
        let golden = 0.618_033_988_749_895;
        let orient = (class as f64 * golden) % 1.0 * std::f64::consts::PI;
        let freq = 0.2 + 0.6 * (((class as f64) * 0.37) % 1.0);
        let chan = 0.5 + ((class as f64 * 0.73) % 1.0);
        (orient, freq, chan)
    }

    /// Generates the dataset.
    pub fn generate(&self) -> ImageDataset {
        let mut rng = XorShiftRng::new(self.seed);
        let mut images = Vec::with_capacity(self.n);
        let mut labels = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let class = rng.next_usize(self.classes.max(1));
            let (orient, freq, chan) = self.class_params(class);
            let phase = rng.next_f64() * std::f64::consts::TAU;
            let (c, s) = (orient.cos(), orient.sin());
            let mut img = Image::zeros(self.size, self.size, self.channels);
            for ch in 0..self.channels {
                let ch_scale = 1.0 + chan * ch as f64 * 0.3;
                for y in 0..self.size {
                    for x in 0..self.size {
                        let t = freq * (c * x as f64 + s * y as f64) + phase;
                        let v = (t * ch_scale).sin() + self.noise * rng.next_gaussian();
                        img.set(x, y, ch, v);
                    }
                }
            }
            images.push(img);
            labels.push(class);
        }
        ImageDataset {
            images: DistCollection::from_vec(images, self.partitions),
            labels: DistCollection::from_vec(labels, self.partitions),
        }
    }

    /// Train/test split with an independent test stream.
    pub fn generate_split(&self, test_fraction: f64) -> (ImageDataset, ImageDataset) {
        let test_n = ((self.n as f64) * test_fraction).round() as usize;
        let train = ImageDatasetSpec {
            n: self.n - test_n,
            ..self.clone()
        }
        .generate();
        let test = ImageDatasetSpec {
            n: test_n,
            seed: self.seed ^ 0x7E57,
            ..self.clone()
        }
        .generate();
        (train, test)
    }
}

/// A generated labeled image dataset.
pub struct ImageDataset {
    /// The images.
    pub images: DistCollection<Image>,
    /// Class per image.
    pub labels: DistCollection<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let spec = ImageDatasetSpec::cifar_like(20);
        let a = spec.generate();
        assert_eq!(a.images.count(), 20);
        let img = a.images.iter().next().expect("non-empty");
        assert_eq!(img.width(), 32);
        assert_eq!(img.channels(), 3);
        let b = spec.generate();
        assert_eq!(a.images.collect(), b.images.collect());
    }

    #[test]
    fn labels_in_range() {
        let ds = ImageDatasetSpec::voc_like(50, 24).generate();
        assert!(ds.labels.iter().all(|&l| l < 20));
    }

    #[test]
    fn classes_have_distinct_textures() {
        // Mean absolute horizontal gradient differs across orientations.
        let spec = ImageDatasetSpec {
            noise: 0.0,
            ..ImageDatasetSpec::cifar_like(40)
        };
        let ds = spec.generate();
        let images = ds.images.collect();
        let labels = ds.labels.collect();
        let grad_energy = |img: &Image| -> f64 {
            let mut e = 0.0;
            for y in 0..img.height() {
                for x in 1..img.width() {
                    e += (img.get(x, y, 0) - img.get(x - 1, y, 0)).abs();
                }
            }
            e
        };
        // Per-class energies must not all coincide.
        let mut per_class: std::collections::HashMap<usize, Vec<f64>> = Default::default();
        for (img, &l) in images.iter().zip(&labels) {
            per_class.entry(l).or_default().push(grad_energy(img));
        }
        let means: Vec<f64> = per_class
            .values()
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > min * 1.05, "textures indistinct: {} vs {}", max, min);
    }

    #[test]
    fn split_counts() {
        let (train, test) = ImageDatasetSpec::cifar_like(50).generate_split(0.2);
        assert_eq!(train.images.count(), 40);
        assert_eq!(test.images.count(), 10);
    }
}
