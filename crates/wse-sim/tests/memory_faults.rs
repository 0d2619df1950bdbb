//! PE memory is laid out once, at load, and frozen: a handler's access
//! outside its PE's allocation and an allocation after load are the same
//! typed [`FabricError::Memory`] — the smallest-key one, naming the PE and
//! the address — on every engine, never a panic and never a write into a
//! neighbour's words. An `init` that overflows its memory, or touches
//! memory before it is laid out, fails the load; a snapshot of another
//! layout is refused by restore.

use wse_sim::fabric::{Execution, Fabric, FabricConfig, FabricError};
use wse_sim::geometry::{FabricDims, PeCoord};
use wse_sim::memory::MemoryError;
use wse_sim::pe::{PeContext, PeProgram};
use wse_sim::snapshot::{PeRecord, RestoreError};
use wse_sim::wavelet::{Color, Wavelet};

const GO: Color = Color::new(3);
const DIMS: FabricDims = FabricDims { cols: 4, rows: 4 };

/// What a [`Trespasser`] does after writing its word 0 on `GO`.
#[derive(Clone, Copy, Debug)]
enum Trespass {
    Write,
    Read,
    Alloc,
}

/// Allocates two words; on `GO` writes word 0, then trespasses.
struct Trespasser(Trespass);

impl PeProgram for Trespasser {
    fn init(&mut self, ctx: &mut PeContext) {
        ctx.alloc(2);
    }

    fn on_data(&mut self, ctx: &mut PeContext, _w: Wavelet) {
        ctx.memory.write_u32(0, 1);
        match self.0 {
            Trespass::Write => ctx.memory.write_u32(2, 9),
            Trespass::Read => ctx.memory.write_u32(1, ctx.memory.read_u32(5) + 2),
            Trespass::Alloc => {
                let refused = ctx.alloc(3);
                ctx.memory.write_u32(1, refused.offset as u32);
            }
        }
    }
}

/// Runs a trespass at PE (1, 3) and, later in PE-major order but with a
/// larger event key, at PE (2, 0): the error reported is (1, 3)'s.
fn trespass(how: Trespass, execution: Execution) -> (FabricError, Vec<Vec<u32>>) {
    let config = FabricConfig {
        execution,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(DIMS, config, |_| Box::new(Trespasser(how)));
    f.load();
    f.activate(PeCoord::new(1, 3), GO, 0);
    f.activate(PeCoord::new(2, 0), GO, 0);
    let error = f.run().expect_err("a trespass is a run error");
    let memories = DIMS.iter().map(|c| f.memory(c).to_vec()).collect();
    (error, memories)
}

#[test]
fn trespasses_are_the_same_typed_error_on_both_engines() {
    let at = PeCoord::new(1, 3);
    for (how, error) in [
        (
            Trespass::Write,
            MemoryError::Write {
                addr: 2,
                allocated: 2,
            },
        ),
        (
            Trespass::Read,
            MemoryError::Read {
                addr: 5,
                allocated: 2,
            },
        ),
        (Trespass::Alloc, MemoryError::Frozen { addr: 2, len: 3 }),
    ] {
        let expected = FabricError::Memory { pe: at, error };
        let sequential = trespass(how, Execution::Sequential);
        assert_eq!(sequential.0, expected, "{how:?}");
        let sharded = trespass(
            how,
            Execution::Sharded {
                shards: 2,
                threads: 2,
            },
        );
        assert_eq!(sharded, sequential, "{how:?}");
        // The run went on; every PE kept exactly its own two words, and
        // only the two trespassers wrote to them.
        for (pe, words) in sequential.1.iter().enumerate() {
            let trespasser = [DIMS.linear(at), DIMS.linear(PeCoord::new(2, 0))].contains(&pe);
            // a dropped write leaves word 1 zero; a refused read reads 0
            // and a refused allocation still returns offset 2
            let own = if matches!(how, Trespass::Write) {
                [1, 0]
            } else {
                [1, 2]
            };
            assert_eq!(words[..], if trespasser { own } else { [0, 0] }, "PE {pe}");
        }
        let shown = expected.to_string();
        assert!(
            shown.contains("(1, 3)") && shown.contains("word"),
            "{shown}"
        );
    }
}

/// PE (2, 1) — and PE (3, 3) after it — asks for one word more than the
/// 16-word memory holds; the others take 4.
struct Greedy;

impl PeProgram for Greedy {
    fn init(&mut self, ctx: &mut PeContext) {
        let greedy = [PeCoord::new(2, 1), PeCoord::new(3, 3)].contains(&ctx.coord);
        let words = if greedy { 17 } else { 4 };
        ctx.alloc(words);
    }

    fn on_data(&mut self, _ctx: &mut PeContext, _w: Wavelet) {}
}

/// Writes its memory in `init`, before there is any.
struct Eager;

impl PeProgram for Eager {
    fn init(&mut self, ctx: &mut PeContext) {
        let r = ctx.alloc(4);
        ctx.memory.write_u32(r.at(1), 7);
    }

    fn on_data(&mut self, _ctx: &mut PeContext, _w: Wavelet) {}
}

#[test]
fn an_init_that_overflows_or_touches_memory_fails_the_load() {
    let small = FabricConfig {
        pe_memory_bytes: 64,
        ..FabricConfig::default()
    };
    let mut f = Fabric::new(DIMS, small, |_| Box::new(Greedy));
    f.load();
    let exhausted = FabricError::Memory {
        pe: PeCoord::new(2, 1),
        error: MemoryError::Exhausted {
            requested: 17,
            available: 16,
        },
    };
    assert_eq!(f.load_error(), Some(&exhausted), "the first PE in PE order");
    assert_eq!(
        f.memory(PeCoord::new(2, 1)).len(),
        0,
        "a refused allocation takes nothing"
    );
    assert_eq!(f.memory(PeCoord::new(3, 1)).len(), 4);
    f.activate_all(GO, 0);
    assert_eq!(f.run(), Err(exhausted), "a failed load does not run");

    let mut f = Fabric::new(DIMS, FabricConfig::default(), |_| Box::new(Eager));
    f.load();
    let write = MemoryError::Write {
        addr: 1,
        allocated: 0,
    };
    let first = FabricError::Memory {
        pe: PeCoord::new(0, 0),
        error: write,
    };
    assert_eq!(f.load_error(), Some(&first));
    assert!(
        f.memory(PeCoord::new(0, 0)).iter().all(|&w| w == 0),
        "zero-filled"
    );
}

#[test]
fn a_snapshot_of_another_layout_is_refused() {
    let mut f = Fabric::new(DIMS, FabricConfig::default(), |_| {
        Box::new(Trespasser(Trespass::Write))
    });
    f.load();
    f.memory_mut(PeCoord::new(1, 0)).copy_from_slice(&[5, 6]);
    let snap = f.snapshot();
    assert_eq!(snap.pes[1].memory_words, [5, 6]);
    assert_eq!(
        snap.pes[2].memory_words, [0u32; 0],
        "trailing zeros trimmed"
    );
    let mut restore_tampered = |tamper: fn(&mut PeRecord)| {
        let mut snap = snap.clone();
        tamper(&mut snap.pes[5]);
        f.restore(&snap)
    };
    for tamper in [
        |r: &mut PeRecord| r.memory_allocated = 3,
        |r: &mut PeRecord| r.memory_allocated = 1,
        |r: &mut PeRecord| r.memory_words = vec![1, 2, 3],
    ] {
        match restore_tampered(tamper) {
            Err(RestoreError::Memory { pe: 5, detail }) => assert!(detail.contains("words")),
            wrong => panic!("expected a memory refusal at PE 5, got {wrong:?}"),
        }
    }
    assert_eq!(f.restore(&snap), Ok(()));
    assert_eq!(f.memory(PeCoord::new(1, 0)), [5, 6]);
}
