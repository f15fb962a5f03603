//! `--noise N`: every workload N times, a fresh process and seed each
//! time, and the spread of each end-to-end metric. `--compare A B`: two
//! such result sets held against the bounds.

use std::process::Command;

use crate::json::{self, Json};
use crate::spec;
use crate::stats::{median, quartiles};

/// Last line of a run's standard output, parsed: the result object.
pub fn result_line(stdout: &str) -> Result<Json, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    json::parse(line)
}

/// Run every workload `n` times back to back (seeds `seed`, `seed + 1`,
/// …), print the table and write the result set to `out`.
pub fn noise(n: usize, seed: u64, seconds: u64, out: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set: Vec<(String, Json)> = Vec::new();
    println!("| workload | metric | median | min | max | (max-min)/median | IQR/median |");
    println!("|---|---|---|---|---|---|---|");
    for w in &spec::WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for i in 0..n {
            let run = Command::new(&exe)
                .args(["--workload", w.name, "--trace", "0"])
                .args([
                    "--seed",
                    &(seed + i as u64).to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&run.stdout);
            if !run.status.success() {
                return Err(format!(
                    "{} run {i} failed:\n{stdout}{}",
                    w.name,
                    String::from_utf8_lossy(&run.stderr)
                ));
            }
            let result = result_line(&stdout)?;
            for (m, column) in spec::END_TO_END.iter().zip(&mut values) {
                let v = result
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|x| x.get("value"));
                column.push(
                    v.and_then(Json::as_f64)
                        .ok_or_else(|| format!("{}: no {}", w.name, m.name))?,
                );
            }
        }
        for (m, column) in spec::END_TO_END.iter().zip(&values) {
            let med = median(column);
            let (lo, hi) = column
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let (q1, q3) = quartiles(column);
            println!(
                "| {} | {} | {med:.6} | {lo:.6} | {hi:.6} | {:.4} | {:.4} |",
                w.name,
                m.name,
                (hi - lo) / med,
                (q3 - q1) / med
            );
        }
        let metrics = spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, column)| {
                (
                    m.name.to_string(),
                    Json::Arr(column.into_iter().map(Json::Num).collect()),
                )
            })
            .collect();
        set.push((w.name.to_string(), Json::Obj(metrics)));
    }
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, Json::Obj(set).pretty()).map_err(|e| format!("{out}: {e}"))?;
    println!("\nresult set written to {out}");
    Ok(())
}

/// How much worse `b` is than `a` as a share of `a`, in the metric's own
/// direction (negative: better).
pub fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Print every workload × metric pair of two result sets; `Ok(false)`
/// when any pair is out of bound.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let column = |set: &Json, w: &str, m: &str| -> Result<Vec<f64>, String> {
        set.get(w)
            .and_then(|ms| ms.get(m))
            .and_then(Json::as_arr)
            .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
            .ok_or_else(|| format!("no {w}/{m} in a result set"))
    };
    let mut all_within = true;
    println!(
        "| workload | metric | median A | median B | B worse by | bound | IQR/median A | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (va, vb) = (column(&a, w.name, m.name)?, column(&b, w.name, m.name)?);
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worse_by(m.better, ma, mb);
            let (q1, q3) = quartiles(&va);
            let within = worse <= m.bound;
            all_within &= within;
            println!(
                "| {} | {} | {ma:.6} | {mb:.6} | {worse:+.4} | {} | {:.4} | {} |",
                w.name,
                m.name,
                m.bound,
                (q3 - q1) / ma,
                if within {
                    "within bound"
                } else {
                    "OUT OF BOUND"
                }
            );
        }
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by("higher", 10.0, 12.0) < 0.0);
    }

    #[test]
    fn result_line_is_the_last_non_empty_line() {
        let out = "# header\nname 1.0 ms\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{}}\n\n";
        let r = result_line(out).unwrap();
        assert_eq!(r.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert!(result_line("").is_err());
    }
}
