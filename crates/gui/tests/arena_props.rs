//! Property tests for the GUI core's interner: equal strings always
//! intern to the same [`Sym`], distinct strings never alias, and serde
//! round-trips the *string* (ids must never leak into artifacts).

use eclair_gui::{intern, Sym};
use proptest::prelude::*;

proptest! {
    #[test]
    fn interner_round_trips_and_never_aliases(
        strings in proptest::collection::vec("[a-z0-9 _-]{0,24}", 1..30),
    ) {
        let syms: Vec<Sym> = strings.iter().map(|s| intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(sym.as_str(), s.as_str());
            // Re-interning is idempotent: same handle, forever.
            prop_assert_eq!(intern(s), *sym);
        }
        for i in 0..strings.len() {
            for j in 0..strings.len() {
                prop_assert_eq!(
                    strings[i] == strings[j],
                    syms[i] == syms[j],
                    "content equality and handle equality must coincide"
                );
            }
        }
    }

    #[test]
    fn interner_serde_writes_the_string_not_the_id(s in "[a-zA-Z0-9 ./-]{0,24}") {
        let sym = intern(&s);
        let json = serde_json::to_string(&sym).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&s).unwrap());
        let back: Sym = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, sym);
    }
}
