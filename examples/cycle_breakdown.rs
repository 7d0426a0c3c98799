//! Section 3: the distribution of processing-unit cycles.
//!
//! Runs three benchmarks with opposite characters — cmp (independent
//! tasks), compress (a register recurrence between tasks) and gcc
//! (squash-dominated) — and prints where their unit-cycles go, using the
//! paper's taxonomy: useful computation, non-useful computation (work
//! ultimately squashed), no-computation (inter-task wait, intra-task
//! wait, waiting for retirement, ARB stalls) and idle.
//!
//! Also emits a Chrome `trace_event` timeline per benchmark (open in
//! Perfetto or `chrome://tracing`) showing each unit's task spans and the
//! squash waves behind the "non-useful" bucket. Timelines are written
//! under `target/examples/` so build products never land in the source
//! tree (the exact path is printed per benchmark).
//!
//! ```text
//! cargo run --release --example cycle_breakdown
//! ```

use ms_workloads::{by_name, Scale};
use multiscalar::trace::ChromeTraceSink;
use multiscalar::SimConfig;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::Path::new("target/examples");
    std::fs::create_dir_all(out_dir)?;
    for name in ["Cmp", "Compress", "Gcc"] {
        let w = by_name(name, Scale::Test).expect("workload");
        let trace_path =
            out_dir.join(format!("cycle_breakdown_{}.trace.json", name.to_ascii_lowercase()));
        let sink = ChromeTraceSink::new(BufWriter::new(File::create(&trace_path)?));
        let (stats, sink) = w.run_multiscalar_with_sink(SimConfig::multiscalar(8), sink);
        let (_, err) = sink.into_inner();
        if let Some(e) = err {
            return Err(e.into());
        }
        let stats = stats?;
        println!("=== {name} (8 units, 1-way, in-order) ===");
        println!("{}", stats);
        println!("timeline: {} (load in Perfetto)\n", trace_path.display());
    }
    println!(
        "cmp keeps its units busy; compress stalls successors on the `ent` \
         value (inter-task); gcc burns cycles on squashed work — the three \
         loss modes of paper Section 3."
    );
    Ok(())
}
