//! `keystone-perf`: the wall-clock benchmark. One process runs one workload,
//! untraced (`--trace 0`: the seven end-to-end metrics) or traced
//! (`--trace 1`: the per-layer metrics and the span file), and prints one
//! JSON result as the last line of standard output. See `perf/README.md`.

mod agree;
mod json;
mod metrics;
mod probes;
mod protocol;
mod spans;
mod speed;
mod staged;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use keystoneml::obs::{CaptureOptions, RunArtifact};
use keystoneml::prelude::*;

use json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use probes::{Lab, ProbeCtx, Specific};
use protocol::{
    bits, checks, repeat, request_stream, serve_policy, ApplyOnePhase, ApplyPhase, FitPhase,
    Fitted, Ops, Plan, PlanCounts, ServePhase,
};
use spans::SpanLog;
use speed::{norm, Cores, Sample, Speedometer};
use stats::{median, percentile, Summary};
use workloads::{bench_ctx, input_hash, Bench, HashInput, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The untraced run interleaves its timed phases in this many rounds, so
/// that every metric's samples are spread over the whole run: a burst of
/// interference a few seconds long then touches a minority of each
/// metric's samples, not all the samples of one.
const ROUNDS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: keystone-perf --workload NAME --seed N [--seconds S] [--trace 0|1] \
[--out DIR]\n       keystone-perf --agree DIR_A DIR_B --bounds BENCHMARK.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: PathBuf::from("perf/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--agree") {
        return agree::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "text_sparse" => run(&args, workloads::text_sparse, probes::text),
        "speech_dense" => run(&args, workloads::speech_dense, probes::speech),
        "chain_serve" => run(&args, workloads::chain_serve, probes::chain),
        _ => run(&args, workloads::sweep_forest, probes::sweep),
    }
}

/// The `setup` phase, several times over: generate data from the seed,
/// one-hot the labels, build the pipeline graph. Keeps the last set-up.
fn setup_phase<A: Record>(
    seed: u64,
    setup: fn(u64) -> Bench<A>,
    speed: &mut Speedometer,
) -> (Vec<Sample>, Bench<A>) {
    let mut secs = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let (made, sample) = speed.measure(Cores::One, || setup(seed));
        bench = Some(made);
        secs.push(sample);
    }
    (secs, bench.expect("SETUP_REPS > 0"))
}

fn run<A: Record + HashInput>(
    args: &Args,
    setup: fn(u64) -> Bench<A>,
    specific: Specific<A>,
) -> ExitCode {
    let mut ops = Ops::default();
    let mut info = vec![
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.traced)),
        ("machine", machine()),
    ];
    let rows = if args.traced {
        let mut spans = SpanLog::new();
        let m = spans.scope("workload", |spans| {
            run_traced(args, setup, specific, spans, &mut ops, &mut info)
        });
        write_file(
            args,
            &format!("{}.spans.json", args.workload),
            &spans.to_json(&args.workload),
        );
        m.table(PER_LAYER.iter().map(|d| (d.0, d.1)))
    } else {
        let m = run_untraced(args, setup, &mut ops, &mut info);
        m.table(END_TO_END.iter().map(|d| (d.0, d.1)))
    };

    println!(
        "== {} seed {} {} ==",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    metrics::print_table(&rows);
    println!("ops_attempted {}  ops_failed {}", ops.attempted, ops.failed);

    let correct = ops.failed == 0;
    let result = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", metrics::result_metrics(&rows)),
    ];
    info.push(("correct", Json::Bool(correct)));
    info.push(("ops_attempted", Json::Num(ops.attempted as f64)));
    info.push(("ops_failed", Json::Num(ops.failed as f64)));
    info.push((
        "failures",
        Json::Arr(ops.failures.iter().map(Json::str).collect()),
    ));
    info.push(("metrics", metrics::detailed_metrics(&rows)));
    let file = if args.traced {
        format!("{}.traced.json", args.workload)
    } else {
        format!("{}.json", args.workload)
    };
    write_file(args, &file, &Json::obj(info));
    println!("{}", Json::obj(result).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_untraced<A: Record + HashInput>(
    args: &Args,
    setup: fn(u64) -> Bench<A>,
    ops: &mut Ops,
    info: &mut Vec<(&'static str, Json)>,
) -> Metrics {
    let opts = PipelineOptions::full();
    let speed = &mut Speedometer::new();
    let (setup_secs, bench) = setup_phase(args.seed, setup, speed);
    info.push((
        "input_hash",
        Json::str(format!("{:016x}", input_hash(&bench))),
    ));

    let (shape, s) = (bench.shape, args.seconds);
    let Some(mut fits) = FitPhase::warm_up(&bench, &opts, speed, ops) else {
        return Metrics::default();
    };
    let heldout = bench.heldout.collect();
    let n = shape.serve_requests;
    let stream = request_stream(args.seed, n, &heldout);
    let mut apply = ApplyPhase::new();
    let mut one = ApplyOnePhase::new();
    let mut serve = ServePhase::new(&fits.fitted().tenants[0], serve_policy(n));
    for round in 0..ROUNDS {
        let share = |total: usize| (round + 1) * total / ROUNDS - round * total / ROUNDS;
        fits.run(share(shape.fit.count(s)), &bench, &opts, speed, ops);
        apply.run(
            share(shape.apply.count(s)),
            fits.fitted(),
            &bench.heldout,
            speed,
            ops,
        );
        one.run(
            share(shape.apply_one_blocks.count(s)),
            shape.apply_one_block,
            &fits.fitted().tenants[0],
            &heldout,
            speed,
            ops,
        );
        serve.run(share(shape.serve.count(s)), &stream, speed, ops);
    }
    let fitted = fits.fitted();
    checks(&bench, &opts, &fits, serve.last.as_ref(), ops);

    info.push(("plan", Json::str(fitted.plan.fingerprint.clone())));
    info.push(("plan_flips", Json::Num(fits.plans.flips() as f64)));
    let scored = (heldout.len() * fitted.tenants.len()) as f64;
    let mut m = Metrics::default();
    m.put_samples("setup_s", &setup_secs, |s| s);
    m.put_samples("fit_wall_s", &fits.secs, |s| s);
    m.put_samples("apply_rec_per_s", &apply.secs, |s| scored / s);
    // Block statistics are already in microseconds.
    m.put_samples("apply_one_p50_us", &one.p50_us, |us| us);
    m.put_samples("apply_one_p99_us", &one.p99_us, |us| us);
    m.put_samples("serve_rps", &serve.secs, |s| n as f64 / s);
    m.put_value("peak_rss_mb", peak_rss_mib());
    m
}

fn run_traced<A: Record + HashInput>(
    args: &Args,
    setup: fn(u64) -> Bench<A>,
    specific: Specific<A>,
    spans: &mut SpanLog,
    ops: &mut Ops,
    info: &mut Vec<(&'static str, Json)>,
) -> Metrics {
    let opts = PipelineOptions::full();
    let s = args.seconds;
    let speed = &mut Speedometer::new();
    let mut m = Metrics::default();
    let (_, bench) = spans.scope("setup", |_| setup_phase(args.seed, setup, speed));

    // fit: `Pipeline::fit` and the staged fit of the same pipeline (tenant
    // 0 of the sweep), alternating, so both see the same machine state.
    let mut plain_secs = Vec::new();
    let mut staged_secs = Vec::new();
    let mut plans = PlanCounts::default();
    let mut last = None;
    spans.scope("fit", |spans| {
        repeat((bench.shape.fit.count(s) / 5).clamp(3, 2000), || {
            let pipe = (bench.build)().swap_remove(0);
            let ctx = bench_ctx();
            let ((plain, report), sample) = ops.guard(1, "fit", || {
                spans.scope("fit.plain", |_| {
                    speed.measure(Cores::All, || pipe.fit(&ctx, &opts))
                })
            })?;
            plain_secs.push(sample);
            plans.add(&Plan::of(&report).fingerprint);
            let staged_ctx = bench_ctx();
            let ((staged, staged_plan), sample) = ops.guard(1, "staged fit", || {
                speed.measure(Cores::All, || {
                    staged::staged_fit(&pipe, &staged_ctx, &opts, spans)
                })
            })?;
            staged_secs.push(sample);
            last = Some((plain, report, ctx, staged, staged_plan));
            Some(())
        });
    });
    let Some((plain, report, fit_ctx, staged, staged_plan)) = last else {
        return m;
    };
    let plan = Plan::of(&report);
    let fitted = Fitted {
        tenants: vec![plain],
        plan: plan.clone(),
        forest: None,
    };

    // The staged fit must be the fit: same plan, same predictions, and a
    // total within 15% of `Pipeline::fit`'s. Otherwise its breakdown is
    // unresolved and reads 0.
    let check_ctx = bench_ctx();
    let same_plan = staged_plan.fingerprint == plan.fingerprint;
    let same_bits = bits(&staged.apply(&bench.heldout, &check_ctx))
        == bits(&fitted.tenants[0].apply(&bench.heldout, &check_ctx));
    ops.check("staged fit chose the plan Pipeline::fit chose", same_plan);
    ops.check("staged fit bit-identical to Pipeline::fit", same_bits);
    let (plain_s, staged_s) = (median(&norm(&plain_secs)), median(&norm(&staged_secs)));
    let overhead = (staged_s - plain_s) / plain_s;
    let resolved = same_plan && same_bits && overhead.abs() <= 0.15;
    info.push((
        "breakdown",
        Json::str(if resolved { "resolved" } else { "unresolved" }),
    ));
    m.put_samples("trace.fit_plain_s", &plain_secs, |s| s);
    m.put_samples("trace.fit_staged_s", &staged_secs, |s| s);
    m.put_value("trace.overhead_frac", overhead);
    m.put(
        "trace.fit_self_s",
        Summary::of(&spans.self_times("fit.staged")),
    );
    if resolved {
        let stage = |name: &str| Summary::of(&spans.durations(name));
        m.put("optimizer.cse_s", stage("cse"));
        m.put("optimizer.profile_s", stage("profile"));
        m.put("optimizer.materialize_s", stage("materialize"));
        m.put("optimizer.fuse_s", stage("fuse"));
        m.put("executor.fit_execute_s", stage("execute"));
        let optimizer: f64 = ["cse", "profile", "materialize", "fuse"]
            .iter()
            .map(|n| stage(n).median)
            .sum();
        let whole = median(&spans.durations("fit.staged"));
        m.put_value("optimizer.total_share", optimizer / whole);
        // Cross-check: the library's own optimizer stopwatch, as a share.
        info.push((
            "optimize_secs_share_by_fit_report",
            Json::Num(plan.optimize_secs / plain_secs.last().map_or(f64::NAN, |s| s.raw)),
        ));
    } else {
        println!(
            "staged-fit breakdown: unresolved (overhead {overhead:+.3}, same plan {same_plan}, \
             same bits {same_bits})"
        );
    }
    m.put_value("optimizer.cse_eliminated", plan.cse_eliminated as f64);
    m.put_value("optimizer.cache_picks", plan.cache_picks as f64);
    m.put_value("optimizer.fused_nodes", plan.fused_nodes as f64);
    m.put_value("optimizer.columnar_chains", plan.columnar_chains as f64);
    m.put_value("optimizer.plan_flips", plans.flips() as f64);
    info.push(("plan", Json::str(plan.fingerprint.clone())));

    let heldout = bench.heldout.collect();
    let mut apply = ApplyPhase::new();
    spans.scope("apply", |_| {
        apply.run(3, &fitted, &bench.heldout, speed, ops)
    });
    m.put_samples("trace.apply_rec_per_s", &apply.secs, |t| {
        heldout.len() as f64 / t
    });

    let mut one = ApplyOnePhase::new();
    spans.scope("apply_one", |_| {
        let block = bench.shape.apply_one_block;
        one.run(1, block, &fitted.tenants[0], &heldout, speed, ops)
    });
    m.put_value("executor.ctx_events_per_call", one.ctx_events_per_call());

    // serve: the measured policy, then the same stream one request per wave
    // and 32 per wave on one partition.
    spans.scope("serve", |_| {
        let n = bench.shape.serve_requests;
        let stream = request_stream(args.seed, n, &heldout);
        let tenant = &fitted.tenants[0];
        let rate = |t: f64| n as f64 / t;
        let mut serve = |policy: BatchPolicy, reps: usize| {
            let mut phase = ServePhase::new(tenant, policy);
            phase.run(reps, &stream, speed, ops);
            phase
        };
        let default = serve(serve_policy(n), 2);
        m.put_samples("trace.serve_rps", &default.secs, rate);
        m.put_value("serve.cache_hit_ratio", default.cache_hit_ratio());
        if let Some(outcome) = &default.last {
            m.put_value("serve.waves", outcome.batches.len() as f64);
            m.put_value("serve.rejects", outcome.rejects.len() as f64);
            let totals: Vec<f64> = outcome
                .responses
                .iter()
                .map(|r| r.timing.total_secs())
                .collect();
            m.put_value("serve.virtual_p99_s", percentile(&totals, 99.0));
        }
        let single = BatchPolicy::new(1, 0.0).with_queue_capacity(n);
        let b1 = serve(single, 1);
        m.put_samples("serve.rps_b1", &b1.secs, rate);
        let one_partition = BatchPolicy::new(32, 1e-3).with_queue_capacity(n);
        let b32 = serve(one_partition, 2);
        m.put_samples("serve.rps_b32_p1", &b32.secs, rate);
        m.put_value(
            "serve.batch_speedup",
            m.value("serve.rps_b32_p1") / m.value("serve.rps_b1"),
        );
        m.put_value(
            "serve.partition_penalty",
            m.value("serve.rps_b32_p1") / m.value("trace.serve_rps"),
        );
    });

    let probes_start = Instant::now();
    spans.scope("probes", |spans| {
        let pc = ProbeCtx {
            seconds: s,
            opts: &opts,
            choices: &report.choices,
            base_fit_s: plain_s,
        };
        let mut lab = Lab {
            m: &mut m,
            spans,
            speed,
            ops,
        };
        probes::generic(pc.budget(), &mut lab);
        specific(&bench, &pc, &mut lab);
        lab.spans.scope("probe.obs", |_| {
            let start = Instant::now();
            let artifact = RunArtifact::capture_fit(
                &report,
                &fitted.tenants[0].plan(),
                &fit_ctx,
                &CaptureOptions::default(),
            );
            let json = artifact.to_json();
            lab.m
                .put_value("obs.capture_fit_ms", start.elapsed().as_secs_f64() * 1e3);
            lab.m
                .put_value("obs.artifact_kb", json.len() as f64 / 1024.0);
        });
    });
    m.put_value("trace.probes_s", probes_start.elapsed().as_secs_f64());
    m.put_value("trace.spans", spans.spans().len() as f64);
    m
}

fn write_file(args: &Args, name: &str, doc: &Json) {
    let path = args.out.join(name);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"));
    if let Err(e) = written {
        // The result line on standard output is the contract; the file is
        // a convenience for `run.sh` and `agree.sh`.
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Two outputs with different `nproc` are not comparable; this records what
/// the numbers were taken on.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(env!("PERF_RUSTC_VERSION"))),
        (
            "git_commit",
            Json::str(std::env::var("PERF_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
    ])
}
