//! Integration tests for the in-transit transport working together with
//! the full pipeline.

use bytes::Bytes;
use canopus_adios::store::BlockWrite;
use canopus_adios::{BpStore, Transport, TransportWriter};
use canopus_storage::{ProductKind, StorageHierarchy, TierSpec};
use std::sync::Arc;

fn hierarchy() -> Arc<StorageHierarchy> {
    Arc::new(StorageHierarchy::new(vec![
        TierSpec::new("fast", 48 * 1024, 1e9, 1e9, 1e-6),
        TierSpec::new("mid", 512 * 1024, 1e7, 1e7, 1e-4),
        TierSpec::new("slow", 64 << 20, 1e6, 1e6, 1e-3),
    ]))
}

/// Simulate a simulation loop: stage several timesteps in transit while
/// "compute" continues, then drain and read everything back.
#[test]
fn staged_timesteps_drain_and_read_back() {
    let h = hierarchy();
    let store = BpStore::new(Arc::clone(&h));
    let writer = TransportWriter::new(store.clone(), Transport::Staged);

    for step in 0..5u8 {
        let blocks = vec![BlockWrite {
            var: "u".into(),
            kind: ProductKind::Base { level: 0 },
            data: Bytes::from(vec![step; 4096]),
            elements: 512,
            codec_id: 0,
            codec_param: 0.0,
            raw_bytes: 4096,
            min: 0.0,
            max: 1.0,
            chunks: vec![],
        }];
        let inline = writer
            .write(&format!("step{step}.bp"), 1, blocks)
            .expect("stage");
        assert!(inline.is_none(), "staged writes return immediately");
    }
    let outcomes = writer.drain();
    assert_eq!(outcomes.len(), 5);
    for o in &outcomes {
        assert!(o.result.is_ok(), "{}: {:?}", o.file, o.result);
    }
    for step in 0..5u8 {
        let f = store.open(&format!("step{step}.bp")).expect("open");
        let (bytes, _, _) = f.read_base("u").expect("read");
        assert!(bytes.iter().all(|&b| b == step));
    }
}

/// Direct vs staged transports produce byte-identical stores.
#[test]
fn transports_are_equivalent_in_outcome() {
    let make_blocks = || {
        vec![BlockWrite {
            var: "v".into(),
            kind: ProductKind::Base { level: 0 },
            data: Bytes::from(
                (0u16..1000)
                    .flat_map(|x| x.to_le_bytes())
                    .collect::<Vec<u8>>(),
            ),
            elements: 250,
            codec_id: 0,
            codec_param: 0.0,
            raw_bytes: 2000,
            min: 0.0,
            max: 1.0,
            chunks: vec![],
        }]
    };
    let read_back = |store: &BpStore| -> Vec<u8> {
        let f = store.open("x.bp").expect("open");
        let (bytes, _, _) = f.read_base("v").expect("read");
        bytes.to_vec()
    };

    let direct_store = BpStore::new(hierarchy());
    TransportWriter::new(direct_store.clone(), Transport::Direct)
        .write("x.bp", 1, make_blocks())
        .expect("direct");

    let staged_store = BpStore::new(hierarchy());
    let w = TransportWriter::new(staged_store.clone(), Transport::Staged);
    w.write("x.bp", 1, make_blocks()).expect("staged");
    let outcomes = w.drain();
    assert!(outcomes.iter().all(|o| o.result.is_ok()));

    assert_eq!(read_back(&direct_store), read_back(&staged_store));
}
