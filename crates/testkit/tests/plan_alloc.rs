//! A compiled plan's steady-state forward allocates nothing: after a
//! warm-up call, `ExecPlan::forward_into` makes no heap allocation on the
//! calling thread for the f32, q8-frozen and q4-frozen LeNet-5 plans and
//! the f32 CifarNet plan, at the widths the sweeps run.
//!
//! A global allocator counts this thread's allocations. The forwards run
//! under `with_thread_cap(1)`, because a parallel scope allocates its job
//! record by design; everything else a forward touches is plan-owned or
//! caller-owned and already sized.

use advcomp_compress::Quantizer;
use advcomp_graph::ExecPlan;
use advcomp_models::{cifarnet, lenet5, ModelKind};
use advcomp_nn::Sequential;
use advcomp_tensor::pool::with_thread_cap;
use advcomp_tensor::Tensor;
use advcomp_testkit::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread (reallocations included).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation per thread.
struct Counting;

fn count() {
    // `try_with`: a thread that allocates while tearing down its locals
    // finds the counter gone.
    let _ = ALLOCATIONS.try_with(|n| {
        let n = n.as_ptr();
        // SAFETY: `n` points into this thread's live `Cell`, and nothing
        // else reads or writes it during these two accesses. Volatile:
        // the optimiser treats allocator calls as touching no user memory,
        // so it could otherwise drop or move the count.
        unsafe { n.write_volatile(n.read_volatile() + 1) }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees carry over; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    // SAFETY: as in `count`; volatile so no read is reused across a call.
    ALLOCATIONS.with(|n| unsafe { n.as_ptr().read_volatile() })
}

fn batch(shape: &[usize], n: usize, seed: u64) -> Tensor {
    let numel: usize = shape.iter().product();
    let mut full = vec![n];
    full.extend_from_slice(shape);
    Tensor::new(&full, DetRng::new(seed).vec_f32(n * numel, 0.0, 1.0)).unwrap()
}

fn frozen(mut model: Sequential, bits: u32) -> Sequential {
    let frozen = Quantizer::for_bitwidth(bits)
        .unwrap()
        .quantize_frozen(&mut model)
        .unwrap();
    assert!(frozen > 0, "nothing froze at {bits} bits");
    model
}

/// Warms a plan up at batch 8, then requires four more forwards at that
/// batch and one at a smaller batch to allocate nothing.
fn assert_steady_state_allocates_nothing(name: &str, model: &Sequential, shape: &[usize]) {
    let mut plan = ExecPlan::compile(model, shape).unwrap();
    let (x, small) = (batch(shape, 8, 5), batch(shape, 3, 6));
    let mut out = Tensor::zeros(&[0]);
    with_thread_cap(1, || {
        plan.forward_into(&x, &mut out).unwrap();
        let before = allocations();
        for _ in 0..4 {
            plan.forward_into(&x, &mut out).unwrap();
        }
        plan.forward_into(&small, &mut out).unwrap();
        let made = allocations() - before;
        assert_eq!(
            made, 0,
            "{name}: {made} allocations in steady-state forwards"
        );
    });
    assert_eq!(
        out.shape()[0],
        3,
        "{name}: the last forward was not published"
    );
}

#[test]
fn steady_state_plan_forwards_allocate_nothing() {
    let lenet = ModelKind::LeNet5.input_shape();
    assert_steady_state_allocates_nothing("lenet5 f32", &lenet5(0.5, 81), lenet);
    assert_steady_state_allocates_nothing("lenet5 q8", &frozen(lenet5(0.5, 82), 8), lenet);
    assert_steady_state_allocates_nothing("lenet5 q4", &frozen(lenet5(0.5, 83), 4), lenet);
    assert_steady_state_allocates_nothing(
        "cifarnet f32",
        &cifarnet(0.35, 84),
        ModelKind::CifarNet.input_shape(),
    );
}

/// The counter sees this thread's allocations, so a pass above is not
/// vacuous.
#[test]
fn the_counter_counts() {
    let before = allocations();
    let v = std::hint::black_box(vec![1u8; 16]);
    assert_eq!(allocations() - before, 1);
    drop(v);
}
