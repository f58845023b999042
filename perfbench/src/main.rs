//! Serving benchmark for the MaxRank service.
//!
//! ```text
//! mrq-perfbench --workload <eval_cold|read_hot|write_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the service up several times (the median is `setup_s`), warms it to
//! a steady state, then runs a closed-loop phase (capacity) and an
//! open-loop phase (latency at a fixed rate), checks the answers, and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Exits
//! with 1 when a correctness check fails and 2 on a usage or set-up error.

mod check;
mod load;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use load::{closed_loop, open_loop, run_unmeasured, Phase};
use report::{Measured, Metric, Traced};
use stats::Samples;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use sut::{derive_seed, OpGen, OpKind, Sut};
use trace::Trace;
use workloads::{Workload, CACHE_ENTRIES, SUBSCRIPTION_CAP, UPDATE_BACKLOG_CAP};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 41;
/// Share of `--seconds` given to the closed-loop phase; the open loop gets
/// the rest.
const CLOSED_SHARE: f64 = 0.75;
/// Rounds of (closed loop, open loop) in a run.
const ROUNDS: usize = 10;
/// Answers re-evaluated per phase by the correctness check.
const SAMPLES_PER_PHASE: usize = 4;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    format!("unknown workload '{value}' (eval_cold, read_hot, write_mix)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mrq-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Where traces and the durable stores go: the build directory.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("perfbench")
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Brings the service to the steady state the timed phases assume.
fn warm_up(sut: &Sut, seed: u64) -> Result<(), String> {
    let w = sut.workload;
    let mut gen = OpGen::new(w, derive_seed(seed, 60));
    if w.mix[1] + w.mix[2] > 0 {
        // Writes until the insert/delete backlog and the subscriptions sit
        // at their caps, then a mixed stretch so the cache holds the
        // current version.
        let (mut updates, mut subscribes) = (0, 0);
        let mut ops = Vec::new();
        while updates < UPDATE_BACKLOG_CAP + 16 || subscribes < SUBSCRIPTION_CAP + 2 {
            let op = gen.next_op();
            match op.kind {
                OpKind::Update => updates += 1,
                OpKind::Subscribe => subscribes += 1,
                OpKind::Query => continue,
            }
            ops.push(op);
        }
        ops.extend((0..300).map(|_| gen.next_op()));
        return run_unmeasured(sut, &ops);
    }
    let keys = w.datasets * w.records;
    if keys <= CACHE_ENTRIES {
        // Every key once, one at a time: with every key in flight at once,
        // which evaluations overlapped on the workers changed from run to
        // run, and with it the peak RSS (by ±3 %).
        for d in 0..w.datasets {
            for focal in 0..w.records {
                let request = mrq_service::QueryRequest::new(
                    sut.names[d].as_str(),
                    focal as mrq_data::RecordId,
                );
                sut.service
                    .query(&request)
                    .map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        return Ok(());
    }
    // Random draws until the cache is full.
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        let ops: Vec<sut::Op> = (0..256).map(|_| gen.next_op()).collect();
        let pending = ops
            .iter()
            .map(|op| {
                let request =
                    mrq_service::QueryRequest::new(sut.names[op.dataset].as_str(), op.focal);
                sut.service.enqueue(&request)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("warm-up: {e}"))?;
        for p in pending {
            p.wait().map_err(|e| format!("warm-up: {e}"))?;
        }
        if sut.service.stats().cache.len >= CACHE_ENTRIES {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("warm-up did not fill the cache in 90 s".into());
        }
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("# {} = {} {} {}", m.name, m.value, m.unit, m.note);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let w = args.workload;
    let out = output_dir();
    let store_base = out.join(format!(
        "stores-{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let epoch = Instant::now();

    let mut setup_trace = Trace::new(args.trace, epoch);
    let mut setup_s = Samples::default();
    let mut current: Option<Sut> = None;
    for k in 0..SETUP_REPEATS {
        if let Some(old) = current.take() {
            old.shutdown();
        }
        let root = match w.checkpoint_wal_bytes {
            Some(_) => Some(sut::fresh_dir(&store_base, &k.to_string())?),
            None => None,
        };
        let started = Instant::now();
        let s = Sut::setup(w, root, &mut setup_trace)?;
        setup_s.push(started.elapsed().as_secs_f64());
        current = Some(s);
    }
    let sut = current.expect("at least one set-up");
    warm_up(&sut, args.seed)?;

    // Rounds of closed loop then open loop: a slow stretch of the machine
    // lands in some rounds only, and the per-round medians shrug it off.
    let closed_s = args.seconds * CLOSED_SHARE / ROUNDS as f64;
    let open_s = args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64;
    let seed = args.seed;
    let cap = SAMPLES_PER_PHASE;
    let (mut plain, mut traced, mut opened) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..ROUNDS as u64 {
        if args.trace {
            plain.push(closed_loop(
                &sut,
                10 + r,
                closed_s / 2.0,
                seed,
                false,
                epoch,
                cap,
            )?);
            traced.push(closed_loop(
                &sut,
                30 + r,
                closed_s / 2.0,
                seed,
                true,
                epoch,
                cap,
            )?);
        } else {
            plain.push(closed_loop(
                &sut,
                10 + r,
                closed_s,
                seed,
                false,
                epoch,
                cap,
            )?);
        }
        let rate = w.open_rate;
        opened.push(open_loop(
            &sut,
            20 + r,
            open_s,
            rate,
            seed,
            args.trace,
            epoch,
            cap,
        )?);
    }
    // Before the checks: re-evaluating the sampled answers takes memory of
    // its own, which depends on which focals the seed sampled.
    let peak_rss_mb = peak_rss_mb();
    let closed_plain = Phase::merge(plain);
    let closed_traced = (!traced.is_empty()).then(|| Phase::merge(traced));
    let open = Phase::merge(opened);

    // Correctness: sampled answers, then (write_mix) subscriptions and the
    // reopened store.
    let phases: Vec<&Phase> = [Some(&closed_plain), closed_traced.as_ref(), Some(&open)]
        .into_iter()
        .flatten()
        .collect();
    let samples: Vec<sut::Sample> = phases
        .iter()
        .flat_map(|p| p.samplers.iter().flat_map(|s| s.kept.iter()))
        .map(|s| sut::Sample {
            entry: s.entry.clone(),
            focal: s.focal,
            got: s.got.clone(),
        })
        .collect();
    let mut errors = check::sampled_answers(&samples);
    errors.extend(check::subscriptions(&sut));
    sut.shutdown();
    let finals: Vec<_> = (0..sut.names.len()).map(|i| sut.snapshot(i)).collect();
    let store_root = sut.store_root.clone();
    drop(sut);
    if let Some(root) = &store_root {
        errors.extend(check::stores(root, &finals));
    }
    if store_base.exists() {
        let _ = std::fs::remove_dir_all(&store_base);
    }

    let attempted: usize = phases.iter().map(|p| p.ops()).sum();
    let failures: Vec<&str> = phases
        .iter()
        .flat_map(|p| p.records.iter())
        .filter_map(|r| r.outcome.error.as_deref())
        .collect();
    for e in failures.iter().take(5) {
        eprintln!("mrq-perfbench: op failed: {e}");
    }
    for e in &errors {
        eprintln!("mrq-perfbench: check failed: {e}");
    }
    println!(
        "# {} seed {} on {} client threads: {} answers re-evaluated, {} checks failed",
        w.name,
        seed,
        load::client_threads(),
        samples.len(),
        errors.len()
    );

    let metrics = match &closed_traced {
        None => report::end_to_end(&mut Measured {
            workload: w,
            setup_s: &mut setup_s,
            closed: &closed_plain,
            open: &open,
            peak_rss_mb,
        }),
        Some(traced) => {
            let mut all = setup_trace.clone();
            all.absorb(traced.trace.clone());
            all.absorb(open.trace.clone());
            let path = out.join(format!("trace-{}-{}.tsv", w.name, seed));
            all.write_tsv(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("# spans written to {}", path.display());
            report::per_layer(&Traced {
                closed_plain: &closed_plain,
                closed: traced,
                open: &open,
                setup_trace: &setup_trace,
            })
        }
    };
    let correct = errors.is_empty();
    print_result(correct, attempted, failures.len(), &metrics);
    Ok(if correct { 0 } else { 1 })
}
