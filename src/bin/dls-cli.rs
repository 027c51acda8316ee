//! `dls-cli` — command-line front end for the DLS-LBL library.
//!
//! ```text
//! dls-cli solve      <w0,w1,..> <z1,..>          optimal allocation + makespan
//! dls-cli gantt      <w0,w1,..> <z1,..>          ASCII Gantt chart (Figure 2)
//! dls-cli run        <w0,w1,..> <z1,..> [J:DEV[:ARG]]...
//!                                                full 4-phase protocol run with
//!                                                optional deviations, e.g. 2:shed:0.5
//! dls-cli run-file   <spec.json>                  run a declarative scenario file
//! dls-cli sweep      <j> <w0,w1,..> <z1,..>      utility vs bid for processor j
//! dls-cli multiround <kmax> <c> <w0,w1,..> <z1,..>
//!                                                makespan vs number of installments
//! ```
//!
//! Rates are comma-separated. `w` lists all processors (root first); `z`
//! lists the links between consecutive processors.

#![allow(clippy::needless_range_loop)] // parallel-array tables

use dls::prelude::*;
use std::process::ExitCode;

fn parse_rates(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad rate {t:?}: {e}"))
        })
        .collect()
}

/// The largest rate a chain may carry, the bound the served path's
/// `svc::quant::canonicalize` enforces. Far larger rates overflow the
/// mechanism's arithmetic (a fine base of `inf`, a makespan of `NaN`).
const MAX_RATE: f64 = 1e12;

/// Parse and check a chain. `run-file` reaches this too, through `cmd_run`.
fn parse_network(w: &str, z: &str) -> Result<LinearNetwork, String> {
    let w = parse_rates(w)?;
    let z = parse_rates(z)?;
    if w.len() != z.len() + 1 {
        return Err(format!(
            "{} processors need {} links, got {}",
            w.len(),
            w.len() - 1,
            z.len()
        ));
    }
    if let Some(bad) = w.iter().find(|&&w| !(w.is_finite() && w > 0.0)) {
        return Err(format!("processor rate {bad} is not finite and positive"));
    }
    if let Some(bad) = z.iter().find(|&&z| !(z.is_finite() && z >= 0.0)) {
        return Err(format!("link rate {bad} is not finite and non-negative"));
    }
    if let Some(bad) = w.iter().chain(&z).find(|&&r| r > MAX_RATE) {
        return Err(format!(
            "rate {bad:e} exceeds the largest accepted rate {MAX_RATE:e}"
        ));
    }
    Ok(LinearNetwork::from_rates(&w, &z))
}

fn parse_deviation(spec: &str) -> Result<(usize, Deviation), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() < 2 {
        return Err(format!("deviation spec {spec:?}; expected J:KIND[:ARG]"));
    }
    let j: usize = parts[0]
        .parse()
        .map_err(|e| format!("bad index in {spec:?}: {e}"))?;
    let arg = |default: f64| -> Result<f64, String> {
        parts
            .get(2)
            .map(|a| {
                a.parse::<f64>()
                    .map_err(|e| format!("bad arg in {spec:?}: {e}"))
            })
            .unwrap_or(Ok(default))
    };
    let deviation = match parts[1] {
        "underbid" => Deviation::Underbid { factor: arg(0.5)? },
        "overbid" => Deviation::Overbid { factor: arg(2.0)? },
        "slack" => Deviation::SlackExecution { factor: arg(1.5)? },
        "contradict" => Deviation::ContradictoryBid {
            second_factor: arg(0.7)?,
        },
        "wrong-equivalent" => Deviation::WrongEquivalent { factor: arg(0.6)? },
        "wrong-distribution" => Deviation::WrongDistribution { factor: arg(1.3)? },
        "shed" => Deviation::ShedLoad {
            keep_fraction: arg(0.5)?,
        },
        "overcharge" => Deviation::Overcharge { amount: arg(0.5)? },
        "false-accusation" => Deviation::FalseAccusation,
        other => return Err(format!("unknown deviation kind {other:?}")),
    };
    Ok((j, deviation))
}

fn cmd_solve(w: &str, z: &str) -> Result<(), String> {
    let net = parse_network(w, z)?;
    let sol = solve_linear(&net);
    println!("network: {net}");
    println!(
        "{:<6} {:>12} {:>12} {:>12}",
        "proc", "alpha", "w_bar", "finish"
    );
    let times = finish_times(&net, &sol.alloc);
    for i in 0..net.len() {
        println!(
            "{:<6} {:>12.6} {:>12.6} {:>12.6}",
            format!("P{i}"),
            sol.alloc.alpha(i),
            sol.equivalent[i],
            times[i]
        );
    }
    println!("makespan: {:.6}", sol.makespan());
    Ok(())
}

fn cmd_gantt(w: &str, z: &str) -> Result<(), String> {
    let net = parse_network(w, z)?;
    let sol = solve_linear(&net);
    let run = dls::sim::simulate_honest(&net, &sol.local);
    println!("legend: ▒ receive  █ compute  ░ send");
    print!("{}", run.gantt.render_ascii(72));
    println!("makespan: {:.6} ({} events)", run.makespan, run.events);
    Ok(())
}

fn cmd_run(w: &str, z: &str, dev_specs: &[String]) -> Result<(), String> {
    let net = parse_network(w, z)?;
    if net.len() < 2 {
        return Err("need at least one strategic processor".into());
    }
    let parts = dls::workloads::mechanism_parts(&net);
    let mut scenario = Scenario::honest(parts.root_rate, parts.true_rates, parts.link_rates);
    for spec in dev_specs {
        let (j, d) = parse_deviation(spec)?;
        if j < 1 || j > scenario.num_agents() {
            return Err(format!(
                "deviant index {j} out of range 1..={}",
                scenario.num_agents()
            ));
        }
        scenario = scenario.with_deviation(j, d);
    }
    let report = dls::protocol::try_run(&scenario).map_err(|e| format!("invalid scenario: {e}"))?;
    println!(
        "makespan: {:.6}   events: {}",
        report.makespan, report.events
    );
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>12}",
        "proc", "assigned", "retained", "w~", "net utility"
    );
    for j in 1..=scenario.num_agents() {
        println!(
            "{:<6} {:>10.5} {:>10.5} {:>10.4} {:>12.5}",
            format!("P{j}"),
            report.assigned[j],
            report.retained[j],
            report.actual_rates[j - 1],
            report.utility(j)
        );
    }
    if report.clean() {
        println!("no grievances filed");
    } else {
        for a in &report.arbitrations {
            println!(
                "arbitration: {} by P{} against P{} — {} (fine {:.3})",
                a.complaint,
                a.claimant,
                a.accused,
                if a.substantiated {
                    "SUBSTANTIATED"
                } else {
                    "rejected"
                },
                a.fine
            );
        }
    }
    Ok(())
}

fn cmd_run_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec =
        dls::workloads::ScenarioSpec::from_json(&text).map_err(|e| format!("bad spec: {e}"))?;
    let net = spec.network.resolve().map_err(|e| e.to_string())?;
    let w = net
        .w
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let z = net
        .z
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let dev_specs: Vec<String> = spec
        .deviations
        .iter()
        .map(|d| {
            let kind = match d.kind.as_str() {
                "underbid" => "underbid",
                "overbid" => "overbid",
                "slack-execution" => "slack",
                "contradictory-bid" => "contradict",
                "wrong-equivalent" => "wrong-equivalent",
                "wrong-distribution" => "wrong-distribution",
                "shed-load" => "shed",
                "overcharge" => "overcharge",
                "false-accusation" => "false-accusation",
                other => other,
            };
            match d.parameter {
                Some(p) => format!("{}:{}:{}", d.processor, kind, p),
                None => format!("{}:{}", d.processor, kind),
            }
        })
        .collect();
    cmd_run(&w, &z, &dev_specs)
}

fn cmd_sweep(j: &str, w: &str, z: &str) -> Result<(), String> {
    let j: usize = j.parse().map_err(|e| format!("bad index: {e}"))?;
    let net = parse_network(w, z)?;
    let parts = dls::workloads::mechanism_parts(&net);
    if j < 1 || j > parts.true_rates.len() {
        return Err(format!(
            "index {j} out of range 1..={}",
            parts.true_rates.len()
        ));
    }
    let mech = DlsLbl::new(parts.root_rate, parts.link_rates.clone());
    let agents: Vec<Agent> = parts.true_rates.iter().map(|&t| Agent::new(t)).collect();
    let truthful: Vec<Conduct> = agents.iter().map(|&a| Conduct::truthful(a)).collect();
    let factors: Vec<f64> = (1..=30).map(|i| i as f64 * 0.1).collect();
    let sweep = dls::mechanism::verify::bid_sweep(&mech, &agents, j, &truthful, &factors);
    println!("{:>8} {:>10} {:>12}", "bid/t", "bid", "utility");
    for p in &sweep.points {
        let mark = if (p.bid_factor - 1.0).abs() < 1e-9 {
            "  <- truth"
        } else {
            ""
        };
        println!(
            "{:>8.2} {:>10.4} {:>12.6}{mark}",
            p.bid_factor, p.bid, p.utility
        );
    }
    println!(
        "truthful utility {:.6}; best deviation gain {:+.2e} (strategyproof ⇒ ≤ 0)",
        sweep.truthful_utility,
        sweep.max_gain()
    );
    Ok(())
}

fn cmd_multiround(kmax: &str, c: &str, w: &str, z: &str) -> Result<(), String> {
    let kmax: usize = kmax.parse().map_err(|e| format!("bad kmax: {e}"))?;
    if kmax == 0 {
        return Err("kmax must be at least 1".into());
    }
    let c: f64 = c.parse().map_err(|e| format!("bad startup: {e}"))?;
    if !(c.is_finite() && c >= 0.0) {
        return Err(format!("startup {c} is not finite and non-negative"));
    }
    let net = parse_network(w, z)?;
    println!("{:>4} {:>12}", "k", "makespan");
    for (k, ms) in dls::dlt::multiround::round_sweep(&net, c, kmax) {
        println!("{k:>4} {ms:>12.6}");
    }
    let (best_k, best_ms) = dls::dlt::multiround::best_rounds(&net, c, kmax);
    println!("best: k = {best_k} (makespan {best_ms:.6})");
    Ok(())
}

fn usage() -> String {
    "usage:\n  dls-cli solve <w0,w1,..> <z1,..>\n  dls-cli gantt <w0,w1,..> <z1,..>\n  dls-cli run <w0,w1,..> <z1,..> [J:KIND[:ARG]]...\n  dls-cli run-file <spec.json>\n  dls-cli sweep <j> <w0,w1,..> <z1,..>\n  dls-cli multiround <kmax> <c> <w0,w1,..> <z1,..>\n\ndeviation kinds: underbid overbid slack contradict wrong-equivalent\n                 wrong-distribution shed overcharge false-accusation"
        .to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("solve") if args.len() == 3 => cmd_solve(&args[1], &args[2]),
        Some("gantt") if args.len() == 3 => cmd_gantt(&args[1], &args[2]),
        Some("run") if args.len() >= 3 => cmd_run(&args[1], &args[2], &args[3..]),
        Some("run-file") if args.len() == 2 => cmd_run_file(&args[1]),
        Some("sweep") if args.len() == 4 => cmd_sweep(&args[1], &args[2], &args[3]),
        Some("multiround") if args.len() == 5 => {
            cmd_multiround(&args[1], &args[2], &args[3], &args[4])
        }
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
