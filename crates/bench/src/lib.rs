//! # keystone-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! KeystoneML paper's evaluation (see `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! Each `benches/*.rs` target is a standalone report generator: running
//! `cargo bench -p keystone-bench --bench <name>` from the repo root prints
//! the paper-style rows and writes machine-readable JSON under
//! `target/keystone-experiments/`. Kernel and executor micro-measurements
//! live in `perf/` (`linalg.*` / `executor.*` probes), not here.

use std::path::PathBuf;
use std::time::Instant;

use keystone_dataflow::json::JVal;

/// Times a closure once (macro-benchmark style; end-to-end experiments are
/// far too large for statistical repetition).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats a row of fixed-width cells.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{:>12}", c))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints a titled table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {} ===", title);
    println!(
        "{}",
        row(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", row(r));
    }
}

/// `keystone-experiments/` under the workspace's target directory. Cargo runs
/// a bench with the package root as its working directory, so the default
/// is resolved from this crate's manifest, not from `./target`.
pub fn experiments_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")),
            PathBuf::from,
        )
        .join("keystone-experiments")
}

/// Writes an experiment's table rows as a JSON array of string arrays under
/// [`experiments_dir`].
pub fn save_json(name: &str, rows: &[Vec<String>]) {
    let dir = experiments_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let doc = JVal::Arr(
        rows.iter()
            .map(|r| JVal::Arr(r.iter().map(|c| JVal::str(c)).collect()))
            .collect(),
    );
    let path = dir.join(format!("{name}.json"));
    if std::fs::write(&path, doc.render()).is_ok() {
        println!("[saved {}]", path.display());
    }
}

/// Returns true when the caller should run a reduced-size experiment
/// (set `KEYSTONE_BENCH_FULL=1` for the full-size sweep).
pub fn quick_mode() -> bool {
    std::env::var("KEYSTONE_BENCH_FULL").map_or(true, |v| v != "1")
}

/// Formats seconds with ms precision.
pub fn secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.0}ms", s * 1e3)
    } else if s < 100.0 {
        format!("{:.2}s", s)
    } else {
        format!("{:.0}s", s)
    }
}

/// Planted least-squares problems shared by the solver benches.
pub mod problems {
    use keystone_dataflow::collection::DistCollection;
    use keystone_linalg::rng::XorShiftRng;
    use keystone_linalg::sparse::SparseVector;

    /// Dense planted problem: `y = X w* + noise`, `k` targets.
    pub fn dense(
        n: usize,
        d: usize,
        k: usize,
        seed: u64,
    ) -> (DistCollection<Vec<f64>>, DistCollection<Vec<f64>>) {
        let mut rng = XorShiftRng::new(seed);
        let wstar: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..d)
                    .map(|_| rng.next_gaussian() / (d as f64).sqrt())
                    .collect()
            })
            .collect();
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..d).map(|_| rng.next_gaussian()).collect();
            let y: Vec<f64> = wstar
                .iter()
                .map(|w| {
                    x.iter().zip(w).map(|(a, b)| a * b).sum::<f64>() + 0.01 * rng.next_gaussian()
                })
                .collect();
            rows.push(x);
            labels.push(y);
        }
        (
            DistCollection::from_vec(rows, 8),
            DistCollection::from_vec(labels, 8),
        )
    }

    /// Sparse planted problem (text-like): `nnz` active features per row.
    pub fn sparse(
        n: usize,
        d: usize,
        nnz: usize,
        k: usize,
        seed: u64,
    ) -> (DistCollection<SparseVector>, DistCollection<Vec<f64>>) {
        let mut rng = XorShiftRng::new(seed);
        // Planted weights on a small subset of features per target.
        let wstar: Vec<Vec<(usize, f64)>> = (0..k)
            .map(|_| {
                (0..64.min(d))
                    .map(|_| (rng.next_usize(d), rng.next_gaussian()))
                    .collect()
            })
            .collect();
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let pairs: Vec<(u32, f64)> =
                (0..nnz).map(|_| (rng.next_usize(d) as u32, 1.0)).collect();
            let x = SparseVector::from_pairs(d, pairs);
            let y: Vec<f64> = wstar
                .iter()
                .map(|w| {
                    w.iter().map(|&(j, wv)| wv * x.get(j)).sum::<f64>() + 0.01 * rng.next_gaussian()
                })
                .collect();
            rows.push(x);
            labels.push(y);
        }
        (
            DistCollection::from_vec(rows, 8),
            DistCollection::from_vec(labels, 8),
        )
    }

    /// Mean squared residual of a fitted model on a problem.
    pub fn mse<F: keystone_solvers::Features>(
        model: &dyn keystone_core::operator::Transformer<F, Vec<f64>>,
        data: &DistCollection<F>,
        labels: &DistCollection<Vec<f64>>,
    ) -> f64 {
        let n = data.count().max(1) as f64;
        let se: f64 = data
            .iter()
            .zip(labels.iter())
            .map(|(x, y)| {
                let p = model.apply(x);
                p.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
            })
            .sum();
        se / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting() {
        let r = row(&["a".into(), "b".into()]);
        assert!(r.contains('a') && r.contains('b'));
        assert!(r.len() >= 24);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(0.5), "500ms");
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(120.0), "120s");
    }

    #[test]
    fn saved_rows_parse_back_through_the_repo_codec() {
        use keystone_dataflow::json::{parse, Value};
        save_json(
            "selftest_rows",
            &[vec!["a \"quoted\" cell".into(), "1.5".into()], vec![]],
        );
        let path = experiments_dir().join("selftest_rows.json");
        let text = std::fs::read_to_string(&path).expect("save_json wrote the file");
        let cell = |s: &str| Value::Str(s.to_string());
        let row = Value::Arr(vec![cell("a \"quoted\" cell"), cell("1.5")]);
        assert_eq!(parse(&text), Ok(Value::Arr(vec![row, Value::Arr(vec![])])));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn time_once_returns_value() {
        let (v, t) = time_once(|| 7);
        assert_eq!(v, 7);
        assert!(t >= 0.0);
    }
}
