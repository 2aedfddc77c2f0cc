//! gql-wirebench: the wire-level benchmark of the gql query service.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload served-small|engine-large|reload-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over a closed loop on one
//! connection to an in-process `Server`; `--trace 1` replays the same
//! workload with spans around each layer's public functions and prints the
//! per-layer metrics. Human-readable detail goes to standard error; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod check;
mod deploy;
mod oracle;
mod run;
mod stats;
mod traced;
mod workload;
mod xml;

use gql_serve::json::Value;

use crate::workload::Workload;

/// Named metrics in print order, each with its unit and sample count.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str, usize)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries.push((name.to_string(), value, unit, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, ..)| *v)
    }

    fn to_value(&self) -> Value {
        Value::Obj(
            self.entries
                .iter()
                .map(|(name, value, unit, _)| {
                    (
                        name.clone(),
                        Value::Obj(vec![
                            ("value".into(), Value::Num(*value)),
                            ("unit".into(), Value::str(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gql-wirebench: {e}");
            eprintln!(
                "usage: gql-wirebench --workload served-small|engine-large|reload-churn \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let all_cpus = args.workload.workers_on_all_cpus();
    match deploy::pin_to_one_cpu(all_cpus) {
        Some(cpu) => eprintln!(
            "client and server threads pinned to CPU {cpu}; a pool of {} service workers \
             on {}",
            deploy::pool_size(),
            if all_cpus {
                "every CPU"
            } else {
                "the same CPU"
            }
        ),
        None => eprintln!("could not pin to one CPU; running unpinned"),
    }
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run::run(args.workload, args.seed, args.seconds)
    };
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gql-wirebench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit, samples) in &metrics.entries {
        eprintln!("{name:<32} {value:>14.4} {unit:<10} (n={samples})");
    }
    for wrong in tally.wrong.iter().take(10) {
        eprintln!("WRONG: {wrong}");
    }
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(tally.wrong.is_empty())),
        ("attempted".into(), Value::count(tally.attempted)),
        ("failed".into(), Value::count(tally.failed)),
        ("metrics".into(), metrics.to_value()),
    ]);
    println!("{}", line.render());
    if !tally.wrong.is_empty() {
        std::process::exit(1);
    }
}
