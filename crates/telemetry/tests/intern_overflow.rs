//! The intern table behind `read_jsonl` is bounded: a hostile peer cannot
//! grow memory by sending ever-new names. The table is process-global, so
//! filling it gets a test binary of its own.

use stellaris_telemetry::{intern_name, read_jsonl};

#[test]
fn names_past_the_intern_bound_map_to_overflow() {
    let text: String = (0..1100)
        .map(|i| {
            format!(
                "{{\"type\":\"instant\",\"name\":\"n{i}\",\"id\":{i},\"parent\":0,\"tid\":0,\
                 \"ts_us\":0,\"dur_us\":0,\"fields\":{{}}}}\n"
            )
        })
        .collect();
    let events = read_jsonl(&text).expect("well-formed lines");
    assert_eq!(events.len(), 1100);
    assert_eq!(events[0].name, "n0");
    assert_eq!(events[1023].name, "n1023", "1 024 distinct names fit");
    assert!(
        events[1024..].iter().all(|e| e.name == "interned.overflow"),
        "every later new name maps to the overflow sentinel"
    );
    assert_eq!(intern_name("n7"), "n7", "names already held still resolve");
    assert_eq!(intern_name("fresh"), "interned.overflow");
}
