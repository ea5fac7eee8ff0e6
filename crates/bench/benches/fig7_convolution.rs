//! Figure 7: time to convolve an image with a filter bank as the filter
//! size `k` grows, for the three physical strategies. The paper's shape:
//! BLAS (im2col GEMM) wins at small k, its k² growth loses to FFT at large
//! k, and the separable scheme is fastest whenever filters are rank-1.

use std::sync::Arc;

use keystone_bench::{print_table, quick_mode, save_json, time_once};
use keystone_core::context::ExecContext;
use keystone_core::operator::Transformer;
use keystone_linalg::rng::XorShiftRng;
use keystone_ops::image::convolve::{
    ConvolverFft, ConvolverMatMul, ConvolverSeparable, FilterBank,
};
use keystone_ops::image::Image;

fn main() {
    let (n, b, reps) = if quick_mode() {
        (64usize, 10usize, 5usize)
    } else {
        (256, 50, 5)
    };
    let mut rng = XorShiftRng::new(3);
    let img = Image::new(
        n,
        n,
        3,
        (0..n * n * 3).map(|_| rng.next_gaussian()).collect(),
    );
    let ks: Vec<usize> = if quick_mode() {
        vec![2, 4, 6, 10, 16, 24]
    } else {
        vec![2, 4, 6, 10, 20, 30]
    };

    let ctx = ExecContext::default_cluster();
    let mut rows = Vec::new();
    for &k in &ks {
        // Separable (rank-1) bank so all three strategies are valid; the
        // BLAS/FFT paths don't exploit separability, matching the paper.
        let bank = Arc::new(FilterBank::random_separable(b, k, k as u64));
        let blas = ConvolverMatMul::from_bank(bank.clone());
        let fft = ConvolverFft::from_bank(bank.clone());
        let sep = ConvolverSeparable::from_bank(bank.clone());

        let (_, t_blas) = time_once(|| {
            for _ in 0..reps {
                std::hint::black_box(blas.apply(&img));
            }
        });
        let (_, t_fft) = time_once(|| {
            for _ in 0..reps {
                std::hint::black_box(fft.apply(&img));
            }
        });
        let (_, t_sep) = time_once(|| {
            for _ in 0..reps {
                std::hint::black_box(sep.apply(&img));
            }
        });
        let _ = &ctx;
        rows.push(vec![
            format!("{}", k),
            format!("{:.1}ms", t_sep * 1e3 / reps as f64),
            format!("{:.1}ms", t_blas * 1e3 / reps as f64),
            format!("{:.1}ms", t_fft * 1e3 / reps as f64),
        ]);
    }
    print_table(
        &format!(
            "Fig 7: {}x{}x3 image, {} filters, per-image convolution time",
            n, n, b
        ),
        &["k", "separable", "blas", "fft"],
        &rows,
    );
    save_json("fig7_convolution", &rows);
    println!(
        "\nExpected shape: blas grows ~k² and loses to fft at large k; fft is\n\
         flat in k; separable is cheapest when valid (rank-1 filters)."
    );
}
