//! Integration tests exercising the global dispatcher and serializable
//! snapshots together. These run in their own process, so installing the
//! process-global subscriber cannot interfere with unit tests.

use serde::value::Value;
use std::sync::{Arc, Mutex, OnceLock};
use wsan_obs::{kv, Level};

/// Tests in this file share the process-global subscriber slot; serialize
/// them.
fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().expect("test lock poisoned")
}

struct JsonDoc(Value);

impl serde::Deserialize for JsonDoc {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Ok(JsonDoc(v.clone()))
    }
}

fn parse_lines(text: &str) -> Vec<Value> {
    text.lines().map(|l| serde_json::from_str::<JsonDoc>(l).expect("valid json line").0).collect()
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("field {key}: expected string, got {other:?}"),
    }
}

fn span_path(v: &Value) -> Vec<String> {
    v.get("span")
        .and_then(Value::as_seq)
        .expect("span array")
        .iter()
        .map(|s| match s {
            Value::Str(name) => name.clone(),
            other => panic!("span element: {other:?}"),
        })
        .collect()
}

#[test]
fn json_subscriber_preserves_span_nesting_order() {
    let _guard = global_lock();
    let sink = wsan_obs::SharedBuffer::new();
    wsan_obs::install(Arc::new(wsan_obs::JsonLinesSubscriber::new(Level::Trace, sink.clone())));

    {
        let _outer = wsan_obs::span(Level::Info, "campaign", vec![kv("sets", 3u64)]);
        wsan_obs::event(Level::Info, "test", "at depth one", &[]);
        {
            let _inner = wsan_obs::span(Level::Debug, "simulate", vec![kv("seed", 42u64)]);
            wsan_obs::event(Level::Debug, "test", "at depth two", &[kv("slot", 7u64)]);
        }
        wsan_obs::event(Level::Info, "test", "back at depth one", &[]);
    }
    wsan_obs::event(Level::Info, "test", "outside", &[]);
    wsan_obs::uninstall();

    let records = parse_lines(&sink.contents());
    let kinds: Vec<&str> = records.iter().map(|r| str_field(r, "kind")).collect();
    assert_eq!(
        kinds,
        [
            "span_enter", // campaign
            "event",      // at depth one
            "span_enter", // simulate
            "event",      // at depth two
            "span_exit",  // simulate
            "event",      // back at depth one
            "span_exit",  // campaign
            "event",      // outside
        ]
    );

    // the span path on each record reflects nesting at emission time
    assert_eq!(span_path(&records[0]), ["campaign"]);
    assert_eq!(span_path(&records[1]), ["campaign"]);
    assert_eq!(span_path(&records[2]), ["campaign", "simulate"]);
    assert_eq!(span_path(&records[3]), ["campaign", "simulate"]);
    assert_eq!(span_path(&records[4]), ["campaign", "simulate"]);
    assert_eq!(span_path(&records[5]), ["campaign"]);
    assert_eq!(span_path(&records[6]), ["campaign"]);
    assert_eq!(span_path(&records[7]), Vec::<String>::new());

    // span exits carry elapsed time
    assert!(records[4].get("elapsed_ns").is_some());

    // entry fields survive to the subscriber
    assert_eq!(records[2].get("fields").and_then(|f| f.get("seed")), Some(&Value::Int(42)));
}

#[test]
fn uninstalled_tracing_emits_nothing_and_costs_no_panic() {
    let _guard = global_lock();
    wsan_obs::uninstall();
    assert!(!wsan_obs::enabled(Level::Error));
    wsan_obs::event(Level::Error, "test", "dropped", &[kv("x", 1u64)]);
    let _span = wsan_obs::span(Level::Error, "dropped-span", vec![]);
}

#[test]
fn metrics_snapshot_serde_round_trip() {
    let registry = wsan_obs::Registry::new();
    registry.counter("sim.tx").add(1234);
    registry.counter("sim.collisions").add(5);
    registry.gauge("sim.prr.last").set(0.9375);
    let h = registry.histogram("sim.prr", &[0.25, 0.5, 0.75, 0.9, 1.0]);
    for v in [0.1, 0.6, 0.93, 0.97, 1.0] {
        h.observe(v);
    }
    registry.quantile("schedule_ns").record_nanos(std::time::Duration::from_micros(830));

    let snapshot = registry.snapshot();
    let json = serde_json::to_string_pretty(&snapshot).expect("serializable");
    let back: wsan_obs::MetricsSnapshot = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, snapshot);

    assert_eq!(back.counters["sim.tx"], 1234);
    assert_eq!(back.gauges["sim.prr.last"], 0.9375);
    let hist = &back.histograms["sim.prr"];
    assert_eq!(hist.count, 5);
    // le-bound semantics: 0.1→(-∞,0.25], 0.6→(0.5,0.75], 0.93/0.97/1.0→(0.9,1.0]
    assert_eq!(hist.buckets, vec![1, 0, 1, 0, 3, 0]);
    let q = &back.quantiles["schedule_ns"];
    assert_eq!((q.count, q.sum, q.min, q.max), (1, 830_000, 830_000, 830_000));
    assert_eq!(q.p50, 830_000);
}

#[test]
fn global_registry_is_shared_across_call_sites() {
    let a = wsan_obs::global_metrics().counter("shared.count");
    let b = wsan_obs::global_metrics().counter("shared.count");
    a.inc();
    b.inc();
    assert_eq!(a.get(), b.get());
    assert!(a.get() >= 2);
}
