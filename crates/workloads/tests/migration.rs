//! The binary-migration round-trip (paper Section 2.2) must hold for
//! every workload: disassembling the multiscalar binary to source and
//! reassembling yields a bit-identical program, and the migrated binary
//! still produces validated results.

use ms_asm::{assemble, program_to_source, AsmMode};
use ms_isa::{decode, encode};
use ms_workloads::{suite, Scale};
use multiscalar::{Processor, SimConfig};

#[test]
fn every_workload_binary_migrates_losslessly() {
    for w in suite(Scale::Test) {
        let original = w.assemble(AsmMode::Multiscalar).expect("assembles");
        let source = program_to_source(&original);
        let migrated = assemble(&source, AsmMode::Multiscalar)
            .unwrap_or_else(|e| panic!("{}: regenerated source fails: {e}", w.name));
        assert_eq!(original.text, migrated.text, "{}: text differs", w.name);
        assert_eq!(original.tasks, migrated.tasks, "{}: descriptors differ", w.name);
        assert_eq!(original.data, migrated.data, "{}: data differs", w.name);
        assert_eq!(original.entry, migrated.entry, "{}: entry differs", w.name);
    }
}

#[test]
fn migrated_binaries_run_identically() {
    for name in ["Example", "Wc", "Gcc"] {
        let w = ms_workloads::by_name(name, Scale::Test).unwrap();
        let original = w.assemble(AsmMode::Multiscalar).unwrap();
        let migrated = assemble(&program_to_source(&original), AsmMode::Multiscalar).unwrap();
        let mut p1 = Processor::new(original, SimConfig::multiscalar(4)).unwrap();
        let s1 = p1.run().unwrap();
        let mut p2 = Processor::new(migrated, SimConfig::multiscalar(4)).unwrap();
        let s2 = p2.run().unwrap();
        assert_eq!(s1.cycles, s2.cycles, "{name}");
        assert_eq!(s1.instructions, s2.instructions, "{name}");
    }
}

#[test]
fn every_workload_instruction_encodes_in_both_modes() {
    for w in suite(Scale::Test) {
        for mode in [AsmMode::Scalar, AsmMode::Multiscalar] {
            let p = w.assemble(mode).expect("assembles");
            for (i, instr) in p.text.iter().enumerate() {
                let at = format!("{} {mode:?} #{i} `{instr}`", w.name);
                let (word, tag) = encode(instr).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(decode(word, tag).as_ref(), Ok(instr), "{at}");
            }
        }
    }
}
