//! Figure 2: the task-by-task walk of a program CFG.
//!
//! The paper's Figure 2 shows basic blocks A..E with an inner loop (B, C)
//! inside an outer loop (A..D), executed as the dynamic sequence
//! A¹₁B¹₁C¹₁B¹₂… — one *task* per outer iteration. This example builds
//! that CFG, runs it on a 4-unit multiscalar processor, and prints its
//! task retirements: the sequential task walk reconstructed from a
//! parallel execution.
//!
//! ```text
//! cargo run --example cfg_walk
//! ```

use ms_asm::{assemble, AsmMode};
use multiscalar::trace::{TraceEvent, VecSink};
use multiscalar::{Processor, SimConfig};

/// Outer loop of 3 iterations; each iteration runs a data-dependent number
/// of inner (B,C) iterations, like the walk in the paper's Figure 2.
const SRC: &str = r#"
.data
inner_counts: .word 3, 2, 3      ; B/C repetitions per outer iteration
sums: .space 12

.text
main:
.task targets=A create=$16,$20,$22
INIT:
    li!f    $16, 3               ; outer trip count
    li!f    $20, 0               ; outer induction
    la!f    $22, inner_counts
    b!s     A

; Task = one outer iteration: A, then the inner loop over B and C, then D.
.task targets=A,E create=$20,$22
A:
    addiu!f $20, $20, 1
    addiu!f $22, $22, 4
    lw      $9, -4($22)          ; inner trip count for this iteration
    li      $8, 0
B:
    addiu   $8, $8, 1            ; block B
C:
    bne     $8, $9, B            ; block C: inner back edge
D:
    la      $10, sums
    sll     $11, $20, 2
    addu    $10, $10, $11
    sw      $8, -4($10)
    bne!s   $20, $16, A          ; outer back edge / exit (task boundary)

.task targets=halt create=
E:
    halt
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prog = assemble(SRC, AsmMode::Multiscalar)?;
    println!("program listing (Figure 4 shape):\n{}", prog.listing());

    let mut p = Processor::with_sink(prog.clone(), SimConfig::multiscalar(4), VecSink::default())?;
    let stats = p.run()?;

    println!("task walk (retirement order):");
    let name_of = |entry: u32| {
        prog.symbols.iter().find(|(_, &a)| a == entry).map(|(n, _)| n.as_str()).unwrap_or("?")
    };
    let retired = p.sink().events.iter().filter_map(|ev| match *ev {
        TraceEvent::TaskRetire { cycle, unit, entry, instructions, .. } => {
            Some((cycle, unit, entry, instructions))
        }
        _ => None,
    });
    for (i, (cycle, unit, entry, instructions)) in retired.enumerate() {
        println!(
            "  task {i}: {:12} on unit {unit} retired at cycle {cycle:>4} ({instructions} instructions)",
            name_of(entry),
        );
    }
    println!(
        "\n{} tasks retired in {} cycles; inner-loop branches were never \
         predicted by the sequencer — only task boundaries were",
        stats.tasks_retired, stats.cycles
    );
    let sums = prog.symbol("sums").expect("sums");
    let got: Vec<u64> = (0..3).map(|i| p.memory().read_le(sums + 4 * i, 4)).collect();
    assert_eq!(got, vec![3, 2, 3]);
    println!("inner-iteration counts verified: {got:?}");
    Ok(())
}
