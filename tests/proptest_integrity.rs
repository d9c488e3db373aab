//! Property-based end-to-end integrity: arbitrary payloads through arbitrary
//! transfer methods arrive intact, and the KV store agrees with a reference
//! model under arbitrary operation sequences.

use bx_kvssd::{KvStore, KvStoreConfig, MAX_VALUE_LEN};
use byteexpress::{Device, FetchPolicy, TransferMethod};
use proptest::prelude::*;
use std::collections::HashMap;

fn method_strategy() -> impl Strategy<Value = TransferMethod> {
    prop_oneof![
        Just(TransferMethod::Prp),
        Just(TransferMethod::ByteExpress),
        Just(TransferMethod::BandSlim { embed_first: true }),
        (1usize..2048).prop_map(|threshold| TransferMethod::Hybrid { threshold }),
    ]
}

/// Ring depths the device tests run at: small, prime, and the default.
fn depth_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![Just(64u16), Just(1021), Just(1024)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Write→read identity for any (method, payload) pair on the block
    /// device, at any ring depth.
    #[test]
    fn block_write_read_identity(
        method in method_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 1..6000),
        depth in depth_strategy(),
    ) {
        // The longest train a ring holds: BandSlim's, one 48-byte fragment
        // per slot behind the head command, one slot kept free.
        let payload = &payload[..payload.len().min((depth as usize - 2) * 48)];
        let mut dev = Device::builder().queue_depth(depth).build();
        dev.write(0, payload, method).unwrap();
        prop_assert_eq!(dev.read(0, payload.len()).unwrap(), payload);
    }

    /// Both fetch policies deliver identical bytes for the same payload.
    #[test]
    fn fetch_policies_agree(
        payload in proptest::collection::vec(any::<u8>(), 1..3000),
        depth in depth_strategy(),
    ) {
        let mut out = Vec::new();
        for policy in [FetchPolicy::QueueLocal, FetchPolicy::Reassembly] {
            let mut dev = Device::builder()
                .fetch_policy(policy)
                .queue_depth(depth)
                .build();
            dev.write(0, &payload, TransferMethod::ByteExpress).unwrap();
            out.push(dev.read(0, payload.len()).unwrap());
        }
        prop_assert_eq!(&out[0], &payload);
        prop_assert_eq!(&out[0], &out[1]);
    }

    /// Model-based KV test: the store agrees with a HashMap reference under
    /// arbitrary put/get/delete sequences.
    #[test]
    fn kv_store_matches_reference_model(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..20, proptest::collection::vec(any::<u8>(), 0..300)),
            1..120
        ),
        method in method_strategy(),
    ) {
        let mut store = KvStore::open(KvStoreConfig { method, ..Default::default() });
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        for (op, key_id, value) in ops {
            // Keys padded like the device does, so the model agrees on identity.
            let mut key = format!("key-{key_id:02}").into_bytes();
            key.resize(16, 0);
            match op {
                0 => {
                    if value.is_empty() {
                        continue; // empty payloads are rejected at the driver
                    }
                    store.put(&key, &value).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    let got = store.get(&key).unwrap();
                    prop_assert_eq!(got.as_ref(), model.get(&key), "get mismatch");
                }
                _ => {
                    let existed = store.delete(&key).unwrap();
                    prop_assert_eq!(existed, model.remove(&key).is_some(), "delete mismatch");
                }
            }
        }
        // Final sweep.
        for (key, value) in &model {
            let got = store.get(key).unwrap();
            prop_assert_eq!(got.as_deref(), Some(value.as_slice()));
        }
    }

    /// Values at the size limit round-trip; one past the limit is rejected.
    #[test]
    fn kv_value_size_boundary(seed in any::<u8>()) {
        let mut store = KvStore::open(KvStoreConfig::default());
        let value = vec![seed; MAX_VALUE_LEN];
        store.put(b"edge", &value).unwrap();
        prop_assert_eq!(store.get(b"edge").unwrap().unwrap(), value);
        prop_assert!(store.put(b"edge", &vec![seed; MAX_VALUE_LEN + 1]).is_err());
    }
}
