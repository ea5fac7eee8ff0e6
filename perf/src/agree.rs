//! The A/A check: two sets of result files from the same build must agree,
//! metric by metric and workload by workload, within the bounds
//! `BENCHMARK.json` fixes. Later changes are judged against these bounds, so
//! a pair that does not hold here is reported as unresolved, not as equal.

use std::path::Path;
use std::process::ExitCode;

use crate::json::parse_file;

/// How much worse `b` is than `a`, as a share of `a`; negative when better.
pub fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn median_of(dir: &Path, workload: &str, metric: &str) -> Result<f64, String> {
    let path = dir.join(format!("{workload}.json"));
    parse_file(&path)?
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("median"))
        .and_then(|v| v.as_f64())
        .ok_or(format!("{}: no median for {metric}", path.display()))
}

fn compare(dir_a: &Path, dir_b: &Path, bounds: &Path) -> Result<usize, String> {
    let spec = parse_file(bounds)?;
    let list = |key: &str| {
        spec.get(key)
            .and_then(|v| v.as_arr())
            .ok_or(format!("{}: no {key}", bounds.display()))
    };
    let text = |v: &keystoneml::dataflow::metrics::microjson::Value, key: &str| {
        v.get(key)
            .and_then(|x| x.as_str())
            .map(str::to_string)
            .ok_or(format!("{}: entry without {key}", bounds.display()))
    };
    let mut unresolved = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound"
    );
    for workload in list("workloads")? {
        let workload = text(workload, "name")?;
        for metric in list("end_to_end")? {
            let name = text(metric, "name")?;
            let better = text(metric, "better")?;
            let bound = metric
                .get("bound")
                .and_then(|b| b.as_f64())
                .ok_or(format!("{name}: no bound"))?;
            let a = median_of(dir_a, &workload, &name)?;
            let b = median_of(dir_b, &workload, &name)?;
            // Either set may be the worse one: the two are the same code.
            let worse = worsening(a, b, &better).max(worsening(b, a, &better));
            let agree = worse <= bound;
            if !agree {
                unresolved += 1;
            }
            println!(
                "{workload:<14} {name:<18} {a:>14.6} {b:>14.6} {:>7.1}% {:>5.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                if agree { "agree" } else { "unresolved" }
            );
        }
    }
    Ok(unresolved)
}

pub fn main(argv: &[String]) -> ExitCode {
    let [dir_a, dir_b, flag, bounds] = argv else {
        eprintln!("{}", crate::USAGE);
        return ExitCode::from(2);
    };
    if flag != "--bounds" {
        eprintln!("{}", crate::USAGE);
        return ExitCode::from(2);
    }
    match compare(Path::new(dir_a), Path::new(dir_b), Path::new(bounds)) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("{n} (metric, workload) pairs unresolved");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "lower") + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, "higher") - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 12.0, "higher") < 0.0);
    }
}
