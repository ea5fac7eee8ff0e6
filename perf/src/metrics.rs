//! The names this benchmark defines. `BENCHMARK.json` lists the same names,
//! units and directions; a unit test holds the two together.

use crate::json::Json;
use crate::speed::{norm, raw, Sample};
use crate::stats::{median, Summary};

/// `(name, unit, better, bound)`: what a user of the system sees. Reported
/// by the untraced run on every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("fit_wall_s", "s", "lower", 0.20),
    ("apply_rec_per_s", "records/s", "higher", 0.20),
    ("apply_one_p50_us", "us", "lower", 0.10),
    ("apply_one_p99_us", "us", "lower", 0.25),
    ("serve_rps", "responses/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
];

/// `(name, unit, better)`: single layers, reported by the traced run. A
/// layer that does no work on a workload (sparse kernels on
/// `speech_dense`, the forest optimizer anywhere but `sweep_forest`), or a
/// breakdown the staged fit could not resolve, reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("machine.peak_gflops", "GFLOP/s", "higher"),
    ("machine.mem_gbps", "GB/s", "higher"),
    ("linalg.gemm_gflops", "GFLOP/s", "higher"),
    ("linalg.gemm_par_gflops", "GFLOP/s", "higher"),
    ("linalg.gram_gflops", "GFLOP/s", "higher"),
    ("linalg.tr_matmul_gflops", "GFLOP/s", "higher"),
    ("linalg.gemm_roofline_frac", "ratio", "higher"),
    ("linalg.spmv_gbps", "GB/s", "higher"),
    ("linalg.sp_tr_matvec_gbps", "GB/s", "higher"),
    ("linalg.fft_mflops", "MFLOP/s", "higher"),
    ("dataflow.map_rec_per_s", "records/s", "higher"),
    ("dataflow.fold_partitions_rec_per_s", "records/s", "higher"),
    ("dataflow.aggregate_rec_per_s", "records/s", "higher"),
    ("dataflow.region_fixed_us", "us", "lower"),
    ("dataflow.columnar_pack_gbps", "GB/s", "higher"),
    ("dataflow.cache_get_ns", "ns", "lower"),
    ("dataflow.cache_put_ns", "ns", "lower"),
    ("optimizer.cse_s", "s", "lower"),
    ("optimizer.profile_s", "s", "lower"),
    ("optimizer.materialize_s", "s", "lower"),
    ("optimizer.fuse_s", "s", "lower"),
    ("optimizer.total_share", "ratio", "lower"),
    ("optimizer.cse_eliminated", "count", "higher"),
    ("optimizer.cache_picks", "count", "higher"),
    ("optimizer.fused_nodes", "count", "higher"),
    ("optimizer.columnar_chains", "count", "higher"),
    ("optimizer.plan_flips", "count", "lower"),
    ("optimizer.mat_speedup", "ratio", "higher"),
    ("optimizer.forest_solo_sum_s", "s", "lower"),
    ("optimizer.forest_vs_solo_wall", "ratio", "lower"),
    ("optimizer.forest_sim_speedup", "ratio", "higher"),
    ("optimizer.forest_cross_merges", "count", "higher"),
    ("executor.fit_execute_s", "s", "lower"),
    ("executor.node_overhead_us", "us", "lower"),
    ("executor.apply_unfused_rec_per_s", "records/s", "higher"),
    (
        "executor.apply_fused_record_rec_per_s",
        "records/s",
        "higher",
    ),
    ("executor.apply_columnar_rec_per_s", "records/s", "higher"),
    ("executor.fusion_speedup", "ratio", "higher"),
    ("executor.columnar_speedup", "ratio", "higher"),
    ("executor.ctx_events_per_call", "events/call", "lower"),
    ("ops.text_featurize_rec_per_s", "records/s", "higher"),
    ("ops.sparse_features_rec_per_s", "records/s", "higher"),
    ("ops.random_features_rec_per_s", "records/s", "higher"),
    ("solvers.dense_fit_s", "s", "lower"),
    ("solvers.sparse_fit_s", "s", "lower"),
    ("serve.rps_b1", "responses/s", "higher"),
    ("serve.rps_b32_p1", "responses/s", "higher"),
    ("serve.batch_speedup", "ratio", "higher"),
    ("serve.partition_penalty", "ratio", "lower"),
    ("serve.waves", "count", "lower"),
    ("serve.rejects", "count", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.virtual_p99_s", "s", "lower"),
    ("obs.capture_fit_ms", "ms", "lower"),
    ("obs.artifact_kb", "KiB", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.fit_self_s", "s", "lower"),
    ("trace.fit_staged_s", "s", "lower"),
    ("trace.fit_plain_s", "s", "lower"),
    ("trace.apply_rec_per_s", "records/s", "higher"),
    ("trace.serve_rps", "responses/s", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.probes_s", "s", "lower"),
];

/// One reported row. The summary is over speed-normalized samples;
/// `raw_median` is the same median without the normalization.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    pub raw_median: Option<f64>,
}

/// Measured values by name, in the order they were recorded: the summary,
/// and the raw median where the value came from timed samples.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, Summary, Option<f64>)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, summary: Summary) {
        self.rows.push((name.to_string(), summary, None));
    }

    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Records timed samples as `value(seconds)` — the seconds themselves,
    /// or a rate such as `|s| records / s`.
    pub fn put_samples(&mut self, name: &str, samples: &[Sample], value: impl Fn(f64) -> f64) {
        let of = |secs: Vec<f64>| secs.into_iter().map(&value).collect::<Vec<f64>>();
        let row = (
            name.to_string(),
            Summary::of(&of(norm(samples))),
            Some(median(&of(raw(samples)))),
        );
        self.rows.push(row);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.0 == name)
            .map_or(0.0, |r| r.1.median)
    }

    /// One row per defined name, in definition order; a name nothing
    /// recorded reads 0 with no samples.
    pub fn table<'a>(&self, defs: impl IntoIterator<Item = (&'a str, &'static str)>) -> Vec<Row> {
        defs.into_iter()
            .map(|(name, unit)| {
                let found = self.rows.iter().find(|r| r.0 == name);
                let none = Summary {
                    median: 0.0,
                    mad: 0.0,
                    n: 0,
                };
                Row {
                    name: name.to_string(),
                    unit,
                    summary: found.map_or(none, |r| r.1),
                    raw_median: found.and_then(|r| r.2),
                }
            })
            .collect()
    }
}

pub fn print_table(rows: &[Row]) {
    println!(
        "{:<40} {:>16} {:>12} {:>6}  unit",
        "metric", "median", "MAD", "n"
    );
    for r in rows {
        println!(
            "{:<40} {:>16.6} {:>12.6} {:>6}  {}",
            r.name, r.summary.median, r.summary.mad, r.summary.n, r.unit
        );
    }
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
pub fn result_metrics(rows: &[Row]) -> Json {
    Json::obj(rows.iter().map(|r| {
        (
            r.name.clone(),
            Json::obj([
                ("value", Json::Num(r.summary.median)),
                ("unit", Json::str(r.unit)),
            ]),
        )
    }))
}

/// The rows with their spread, for the result file.
pub fn detailed_metrics(rows: &[Row]) -> Json {
    Json::obj(rows.iter().map(|r| {
        let mut fields = vec![
            ("median", Json::Num(r.summary.median)),
            ("mad", Json::Num(r.summary.mad)),
            ("n", Json::Num(r.summary.n as f64)),
            ("unit", Json::str(r.unit)),
        ];
        if let Some(raw) = r.raw_median {
            fields.push(("raw_median", Json::Num(raw)));
        }
        (r.name.clone(), Json::obj(fields))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_file;
    use crate::workloads::WORKLOADS;
    use keystoneml::dataflow::metrics::microjson::Value;
    use std::path::Path;

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(|x| x.as_str()).expect(key)
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = parse_file(&path).expect("BENCHMARK.json parses");

        let e2e = doc
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), unit);
            assert_eq!(field(row, "better"), better);
            assert_eq!(row.get("bound").and_then(|b| b.as_f64()), Some(bound));
        }

        let layers = doc
            .get("per_layer")
            .and_then(|v| v.as_arr())
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), unit);
            assert_eq!(field(row, "better"), better);
        }

        let workloads = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads");
        let names: Vec<&str> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().all(|m| m.3 <= 0.25));
    }

    #[test]
    fn unrecorded_names_read_zero() {
        let mut m = Metrics::default();
        m.put_value("a", 2.0);
        m.put_samples(
            "rate",
            &[
                Sample {
                    raw: 2.0,
                    norm: 4.0,
                },
                Sample {
                    raw: 2.0,
                    norm: 4.0,
                },
            ],
            |s| 8.0 / s,
        );
        let rows = m.table([("a", "s"), ("b", "count"), ("rate", "1/s")]);
        assert_eq!(rows[0].summary.median, 2.0);
        assert_eq!((rows[1].summary.median, rows[1].summary.n), (0.0, 0));
        assert_eq!(
            (rows[2].summary.median, rows[2].raw_median),
            (2.0, Some(4.0))
        );
    }
}
