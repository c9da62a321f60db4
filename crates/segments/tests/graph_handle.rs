//! `sssj_graph::build_with_handle` on a `history=` spec: the history
//! pipeline takes the graph handle itself, so the graph-only entry point
//! must refuse the spec with an error naming the right one instead of
//! panicking on a handle that is no longer there.

use std::fs;

use sssj_core::{JoinSpec, SpecError};

#[test]
fn build_with_handle_refuses_history_specs() {
    let root = std::env::temp_dir().join(format!("sssj-seg-graph-handle-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    sssj_segments::register_spec_builder();
    let spec: JoinSpec = format!(
        "str-l2?theta=0.6&tau=10&durable={}&graph&history={}",
        root.join("wal").display(),
        root.join("hist").display()
    )
    .parse()
    .unwrap();

    match sssj_graph::build_with_handle(&spec) {
        Err(SpecError::Invalid(msg)) => {
            assert!(msg.contains("sssj_segments::build_with_handles"), "{msg}")
        }
        Err(e) => panic!("expected Invalid, got {e:?}"),
        Ok(_) => panic!("built a history spec without its history handle"),
    }
    // The spec itself is fine: the history entry point builds it.
    let (_join, graph, _history) = sssj_segments::build_with_handles(&spec).unwrap();
    assert!(graph.is_some());
    let _ = fs::remove_dir_all(&root);
}
