//! The JSON wire codec allocates per container, never per key, number or
//! field: a decode allocates about once per object or array in the
//! document, and an encode only grows its one output buffer.
//!
//! A counting global allocator sees every heap allocation of this test
//! binary, so the binary holds this one test and no other test's
//! allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use decoder_sim::codec::{config_from_json, JsonValue};
use decoder_sim::SimulationPlatform;
use mspt_serve::{ok_response, parse_reply, ReportRequest, WireReply};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches one atomic and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`, as the
        // caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations an encode may make: its output buffer and one growth of it.
const ENCODE_SLACK: u64 = 2;

/// Allocations a decode may make beyond one per object or array: the
/// parser's stack of pending members.
const DECODE_SLACK: u64 = 1;

/// The allocations `run` makes.
fn allocations<T>(run: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = run();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    drop(value);
    after - before
}

/// The objects and arrays of a document.
fn containers(value: &JsonValue) -> u64 {
    match value {
        JsonValue::Object(members) => {
            1 + members
                .iter()
                .map(|(_, member)| containers(member))
                .sum::<u64>()
        }
        JsonValue::Array(items) => 1 + items.iter().map(containers).sum::<u64>(),
        _ => 0,
    }
}

/// A request for the golden configuration (Gray M = 8, sampled defects, a
/// correlated disturbance, the window override set) and its ok reply.
#[test]
fn json_codec_allocates_per_container_never_per_field() {
    let golden = include_str!("../../sim/tests/fixtures/golden_config.json");
    let request = ReportRequest::new(config_from_json(&JsonValue::parse(golden).unwrap()).unwrap());
    let report = SimulationPlatform::new(request.config.clone())
        .evaluate()
        .unwrap();
    let request_json = request.to_json_string();
    let reply_json = ok_response(&report);
    let request_containers = containers(&JsonValue::parse(&request_json).unwrap());
    let reply_containers = containers(&JsonValue::parse(&reply_json).unwrap());

    let request_encode = allocations(|| request.to_json_string());
    let request_decode =
        allocations(|| ReportRequest::from_json_str(&request_json).expect("the request decodes"));
    let reply_encode = allocations(|| ok_response(&report));
    let reply_decode = allocations(|| parse_reply(&reply_json).expect("the reply decodes"));
    assert_eq!(
        parse_reply(&reply_json).unwrap(),
        WireReply::Report(report.clone())
    );

    let counts = format!(
        "request encode {request_encode}, request decode {request_decode} \
         ({request_containers} containers), reply encode {reply_encode}, \
         reply decode {reply_decode} ({reply_containers} containers)"
    );
    assert!(request_encode <= ENCODE_SLACK, "{counts}");
    assert!(reply_encode <= ENCODE_SLACK, "{counts}");
    assert!(
        request_decode <= request_containers + DECODE_SLACK,
        "{counts}"
    );
    assert!(reply_decode <= reply_containers + DECODE_SLACK, "{counts}");
}
