//! Random Fourier features (Rahimi & Recht) — the kernel approximation the
//! TIMIT pipeline uses to turn a kernel SVM into a linear solve (§5.1).
//!
//! `z(x) = sqrt(2/D) · cos(W x + b)` with `W ~ N(0, γ)` approximates the RBF
//! kernel. Two types share that definition, the paper's §3 split between a
//! logical operator and the physical operator that runs:
//!
//! * [`RandomFeatures`] is the **spec**: `(out_dim, gamma, seed)`, `Copy`,
//!   with every entry of `W` and `b` a pure hash of `(seed, i, j)`. Its
//!   `apply` derives each weight where it is used — two hashes, `ln`, `sqrt`
//!   and `cos` per entry, `D·d` of them per record — and is the reference
//!   the tests compare against.
//! * [`RandomFeatureMap`] ([`RandomFeatures::materialized`]) is the
//!   **physical operator** pipelines chain: it holds `γ·W` and `b` as a
//!   resident table and runs one register-blocked pass over it per record.
//!
//! **First-touch binding.** The table is built from the first record the map
//! sees, which fixes its input dimension. Graph construction therefore stays
//! free, the operator still needs no input dimension up front, and several
//! blocks with different seeds can still be merged with `gather`. Building
//! costs the `D·d` derivations the spec spends on *one* record, so from the
//! first record on the map is never slower and no run-time choice between
//! the two exists. A record whose length differs from the bound dimension
//! takes the spec's path.
//!
//! **Bit-identity.** The spec accumulates `proj += γ * w(i,j) * x[j]`, which
//! Rust evaluates as `proj + ((γ * w(i,j)) * x[j])`, starting from `b[i]`
//! with `j` ascending. The table stores exactly the inner product
//! `γ * w(i,j)`; the kernel starts each accumulator at `b[i]` and adds
//! `table[i][j] * x[j]` for `j` ascending. Every intermediate is the same
//! `f64`, so the two agree to the bit on every input, NaN and ±Inf included.
//! Keeping four outputs in flight changes which additions overlap in time,
//! not their order within an output.

use std::sync::OnceLock;

use keystone_core::operator::Transformer;

/// Random cosine feature block: the spec, and the derive-on-demand reference.
#[derive(Debug, Clone, Copy)]
pub struct RandomFeatures {
    /// Output features `D` of this block.
    pub out_dim: usize,
    /// Kernel bandwidth multiplier: `W ~ N(0, gamma²)`.
    pub gamma: f64,
    /// Block seed (different seeds give independent blocks).
    pub seed: u64,
}

impl RandomFeatures {
    /// A block of `out_dim` features with unit bandwidth.
    pub fn new(out_dim: usize, seed: u64) -> Self {
        RandomFeatures {
            out_dim,
            gamma: 1.0,
            seed,
        }
    }

    /// The physical operator for this spec; see the module docs.
    pub fn materialized(self) -> RandomFeatureMap {
        RandomFeatureMap {
            spec: self,
            table: OnceLock::new(),
        }
    }

    #[inline]
    fn hash2(&self, i: u64, j: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(j.wrapping_mul(0xD1B54A32D192ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Deterministic standard normal for weight `(i, j)`.
    #[inline]
    fn w(&self, i: usize, j: usize) -> f64 {
        let h1 = self.hash2(i as u64, 2 * j as u64);
        let h2 = self.hash2(i as u64, 2 * j as u64 + 1);
        let u1 = ((h1 >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Deterministic uniform phase for output `i`.
    #[inline]
    fn phase(&self, i: usize) -> f64 {
        let h = self.hash2(i as u64, u64::MAX);
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * std::f64::consts::PI
    }

    fn scale(&self) -> f64 {
        (2.0 / self.out_dim as f64).sqrt()
    }
}

impl Transformer<Vec<f64>, Vec<f64>> for RandomFeatures {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        let scale = self.scale();
        (0..self.out_dim)
            .map(|i| {
                let mut proj = self.phase(i);
                for (j, &xv) in x.iter().enumerate() {
                    proj += self.gamma * self.w(i, j) * xv;
                }
                scale * proj.cos()
            })
            .collect()
    }
    fn name(&self) -> String {
        "RandomFeatures".into()
    }
}

/// `γ·W` and `b` of one [`RandomFeatures`] spec at one input dimension.
#[derive(Debug)]
struct Table {
    in_dim: usize,
    scale: f64,
    /// `gamma * w(i, j)`, row-major `out_dim × in_dim`.
    w: Vec<f64>,
    phase: Vec<f64>,
}

impl Table {
    fn build(spec: &RandomFeatures, in_dim: usize) -> Table {
        let mut w = Vec::with_capacity(spec.out_dim * in_dim);
        for i in 0..spec.out_dim {
            w.extend((0..in_dim).map(|j| spec.gamma * spec.w(i, j)));
        }
        Table {
            in_dim,
            scale: spec.scale(),
            w,
            phase: (0..spec.out_dim).map(|i| spec.phase(i)).collect(),
        }
    }

    /// `x.len()` must equal `in_dim`.
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        let d = self.in_dim;
        let mut out = Vec::with_capacity(self.phase.len());
        // Four independent accumulator chains hide the add latency that a
        // single `proj += ..` chain serializes on; each chain still adds its
        // own terms in the spec's order.
        let mut quads = self.phase.chunks_exact(4);
        let mut rows = self.w.as_slice();
        for p in &mut quads {
            let (r0, rest) = rows.split_at(d);
            let (r1, rest) = rest.split_at(d);
            let (r2, rest) = rest.split_at(d);
            let (r3, rest) = rest.split_at(d);
            rows = rest;
            let (mut a0, mut a1, mut a2, mut a3) = (p[0], p[1], p[2], p[3]);
            for ((((&xv, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                a0 += w0 * xv;
                a1 += w1 * xv;
                a2 += w2 * xv;
                a3 += w3 * xv;
            }
            out.extend([a0, a1, a2, a3].map(|a| self.scale * a.cos()));
        }
        for &p in quads.remainder() {
            let (row, rest) = rows.split_at(d);
            rows = rest;
            let mut acc = p;
            for (&wv, &xv) in row.iter().zip(x) {
                acc += wv * xv;
            }
            out.push(self.scale * acc.cos());
        }
        out
    }
}

/// The physical random-feature operator: a [`RandomFeatures`] spec plus its
/// weight table, bound to the input dimension of the first record applied.
/// Bit-identical to the spec's `apply` on every input.
#[derive(Debug)]
pub struct RandomFeatureMap {
    spec: RandomFeatures,
    table: OnceLock<Table>,
}

impl Transformer<Vec<f64>, Vec<f64>> for RandomFeatureMap {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        let table = self.table.get_or_init(|| Table::build(&self.spec, x.len()));
        if x.len() == table.in_dim {
            table.apply(x)
        } else {
            self.spec.apply(x)
        }
    }
    // Same label as the spec: node labels, structural signatures and plan
    // fingerprints do not depend on which of the two a pipeline chained.
    fn name(&self) -> String {
        self.spec.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keystone_linalg::rng::XorShiftRng;

    #[test]
    fn output_shape_and_determinism() {
        let rf = RandomFeatures::new(64, 1);
        let x = vec![0.5, -1.0, 2.0];
        let a = rf.apply(&x);
        let b = rf.apply(&x);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_features() {
        let x = vec![1.0, 1.0];
        let a = RandomFeatures::new(32, 1).apply(&x);
        let b = RandomFeatures::new(32, 2).apply(&x);
        assert_ne!(a, b);
    }

    #[test]
    fn values_bounded_by_scale() {
        let rf = RandomFeatures::new(16, 3);
        let x = vec![3.0, -2.0, 0.5, 1.0];
        let z = rf.apply(&x);
        let bound = (2.0 / 16.0f64).sqrt() + 1e-12;
        assert!(z.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn kernel_approximation_quality() {
        // E[z(x)·z(y)] ≈ exp(-γ²||x−y||²/2) for RBF.
        let gamma = 0.7;
        let rf = RandomFeatures {
            out_dim: 4096,
            gamma,
            seed: 5,
        };
        let mut rng = XorShiftRng::new(9);
        let mut worst = 0.0f64;
        for _ in 0..5 {
            let x: Vec<f64> = (0..4).map(|_| rng.next_gaussian() * 0.5).collect();
            let y: Vec<f64> = (0..4).map(|_| rng.next_gaussian() * 0.5).collect();
            let zx = rf.apply(&x);
            let zy = rf.apply(&y);
            let approx: f64 = zx.iter().zip(&zy).map(|(a, b)| a * b).sum();
            let dist2: f64 = x.iter().zip(&y).map(|(a, b)| (a - b).powi(2)).sum();
            let exact = (-gamma * gamma * dist2 / 2.0).exp();
            worst = worst.max((approx - exact).abs());
        }
        assert!(worst < 0.08, "kernel approximation error {}", worst);
    }

    #[test]
    fn self_kernel_is_one() {
        let rf = RandomFeatures {
            out_dim: 4096,
            gamma: 1.0,
            seed: 6,
        };
        let x = vec![0.3, 0.1, -0.7];
        let z = rf.apply(&x);
        let k: f64 = z.iter().map(|v| v * v).sum();
        assert!((k - 1.0).abs() < 0.08, "self-kernel {}", k);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn map_is_bit_identical_to_spec_on_and_off_the_happy_path() {
        let shapes = [(40, 128), (24, 64), (7, 13), (1, 1), (5, 3), (0, 8), (4, 0)];
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let mut rng = XorShiftRng::new(21);
        for (case, &(in_dim, out_dim)) in shapes.iter().enumerate() {
            let spec = RandomFeatures {
                out_dim,
                gamma: 0.07 + case as f64,
                seed: 0x5117 + case as u64,
            };
            let map = spec.materialized();
            let mut gauss =
                |len: usize| -> Vec<f64> { (0..len).map(|_| rng.next_gaussian()).collect() };
            // The first record binds the table to `in_dim`.
            let mut records = vec![gauss(in_dim), gauss(in_dim)];
            for (at, &v) in hostile.iter().enumerate() {
                let mut x = gauss(in_dim);
                if let Some(slot) = x.get_mut(at % in_dim.max(1)) {
                    *slot = v;
                }
                records.push(x);
            }
            records.push(hostile.iter().cycle().take(in_dim).copied().collect());
            // Lengths other than the bound one: the fallback path.
            records.push(Vec::new());
            records.push(gauss(in_dim + 3));
            records.push(gauss(in_dim.saturating_sub(1)));
            for x in &records {
                let want = spec.apply(x);
                assert_eq!(want.len(), out_dim);
                assert_eq!(
                    bits(&map.apply(x)),
                    bits(&want),
                    "shape {:?}, record of length {}",
                    (in_dim, out_dim),
                    x.len()
                );
            }
            assert_eq!(map.table.get().map(|t| t.in_dim), Some(in_dim));
        }
    }

    #[test]
    fn concurrent_first_touch_builds_one_table() {
        let spec = RandomFeatures {
            out_dim: 13,
            gamma: 0.3,
            seed: 77,
        };
        let map = spec.materialized();
        let mut rng = XorShiftRng::new(4);
        let xs: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..7).map(|_| rng.next_gaussian()).collect())
            .collect();
        let start = std::sync::Barrier::new(2);
        let seen = std::thread::scope(|s| {
            let handles = [&xs[0], &xs[1]].map(|x| {
                let (map, start) = (&map, &start);
                s.spawn(move || {
                    start.wait();
                    let z = map.apply(x);
                    (z, map.table.get().expect("bound by apply"))
                })
            });
            handles.map(|h| h.join().expect("toucher panicked"))
        });
        assert!(std::ptr::eq(seen[0].1, seen[1].1));
        for (x, (z, _)) in xs.iter().zip(&seen) {
            assert_eq!(bits(z), bits(&spec.apply(x)));
        }
    }
}
