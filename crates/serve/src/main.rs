//! The `perceus-serve` binary: `serve` runs the daemon, `loadtest`
//! drives one (spawning an in-process daemon unless `--addr` points at
//! a running one).

#![forbid(unsafe_code)]

use perceus_bench::Baseline;
use perceus_serve::{loadtest, server, LoadConfig, ServeConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         perceus-serve serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n    \
           [--max-inflight N] [--fuel STEPS] [--memory WORDS]\n    \
           [--park-capacity N] [--park-memory WORDS]\n  \
         perceus-serve loadtest [--addr HOST:PORT] [--sessions N] [--connections N]\n    \
           [--window N] [--mix w1,w2,...] [--baseline FILE] [--no-starve]\n    \
           [--starve-every N] [--resume-fuel STEPS] [--no-resume]"
    );
    ExitCode::from(2)
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _bin = args.next();
    match args.next().as_deref() {
        Some("serve") => match serve_cmd(args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perceus-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Some("loadtest") => match loadtest_cmd(args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("perceus-serve: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

fn serve_cmd(mut args: std::env::Args) -> Result<ExitCode, String> {
    let mut config = ServeConfig::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => config.addr = parse_flag(&mut args, "--addr")?,
            "--workers" => config.workers = parse_flag(&mut args, "--workers")?,
            "--queue-depth" => config.queue_depth = parse_flag(&mut args, "--queue-depth")?,
            "--max-inflight" => config.max_inflight = parse_flag(&mut args, "--max-inflight")?,
            "--fuel" => {
                config.max_fuel = parse_flag(&mut args, "--fuel")?;
                config.default_fuel = config.max_fuel;
            }
            "--memory" => {
                config.max_memory = parse_flag(&mut args, "--memory")?;
                config.default_memory = config.max_memory;
            }
            "--park-capacity" => config.park_capacity = parse_flag(&mut args, "--park-capacity")?,
            "--park-memory" => config.park_memory_words = parse_flag(&mut args, "--park-memory")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let handle = server::start(config).map_err(|e| format!("bind failed: {e}"))?;
    println!("perceus-serve listening on {}", handle.addr());
    // The daemon runs until a client sends {"op":"shutdown"} (or the
    // process is killed). `wait` parks on the shutdown flag without
    // raising it — `join` here would stop the server immediately.
    handle.wait();
    Ok(ExitCode::SUCCESS)
}

fn loadtest_cmd(mut args: std::env::Args) -> Result<ExitCode, String> {
    let mut cfg = LoadConfig::default();
    let mut baseline_path: Option<String> = None;
    let mut addr: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = Some(parse_flag(&mut args, "--addr")?),
            "--sessions" => cfg.sessions = parse_flag(&mut args, "--sessions")?,
            "--connections" => cfg.connections = parse_flag(&mut args, "--connections")?,
            "--window" => cfg.window = parse_flag(&mut args, "--window")?,
            "--mix" => {
                let mix: String = parse_flag(&mut args, "--mix")?;
                cfg.mix = mix.split(',').map(str::to_string).collect();
            }
            "--baseline" => baseline_path = Some(parse_flag(&mut args, "--baseline")?),
            "--no-starve" => cfg.starve_every = 0,
            "--starve-every" => cfg.starve_every = parse_flag(&mut args, "--starve-every")?,
            "--resume-fuel" => cfg.resume_fuel = parse_flag(&mut args, "--resume-fuel")?,
            "--no-resume" => cfg.resume = false,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(path) = baseline_path {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        cfg.baseline = Some(Baseline::parse_json(&src).map_err(|e| format!("{path}: {e}"))?);
    }

    // Spawn an in-process daemon when none was given: sized so the
    // requested concurrency is admissible without rejection storms.
    let spawned = match &addr {
        Some(a) => {
            cfg.addr = a.clone();
            None
        }
        None => {
            let mut sc = ServeConfig::default();
            sc.max_inflight = (cfg.connections * cfg.window) as u64 + 64;
            // Shard queues must jointly cover the in-flight cap, or
            // gate 2 rejects sessions gate 1 already admitted.
            sc.queue_depth = sc
                .queue_depth
                .max(sc.max_inflight as usize / sc.workers.max(1) + cfg.window);
            let handle = server::start(sc).map_err(|e| format!("bind failed: {e}"))?;
            cfg.addr = handle.addr().to_string();
            Some(handle)
        }
    };

    let result = loadtest::run(&cfg);
    let stats = loadtest::final_stats(&cfg.addr);
    if let Some(handle) = spawned {
        handle.join();
    }
    let report = result?;
    println!("{}", report.render_json());
    let mut failed = !report.passed();
    match stats {
        Ok(stats) => {
            eprintln!("server stats: {stats:?}");
            let leaked = stats
                .get("leaked_blocks")
                .and_then(perceus_serve::json::Json::as_u64)
                .unwrap_or(u64::MAX);
            let audits = stats
                .get("audit_failures")
                .and_then(perceus_serve::json::Json::as_u64)
                .unwrap_or(u64::MAX);
            let live = stats
                .get("shared_live_blocks")
                .and_then(perceus_serve::json::Json::as_u64);
            let base = stats
                .get("shared_baseline_blocks")
                .and_then(perceus_serve::json::Json::as_u64);
            if leaked != 0 {
                eprintln!("FAIL: server reports {leaked} leaked blocks");
                failed = true;
            }
            if audits != 0 {
                eprintln!("FAIL: server reports {audits} audit failures");
                failed = true;
            }
            let parked = stats
                .get("parked")
                .and_then(perceus_serve::json::Json::as_u64)
                .unwrap_or(u64::MAX);
            if parked != 0 {
                eprintln!("FAIL: {parked} sessions still parked after the run drained");
                failed = true;
            }
            if live != base {
                eprintln!("FAIL: shared segments not drained to baseline ({live:?} != {base:?})");
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("FAIL: could not read final server stats: {e}");
            failed = true;
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
