//! The two engine adapters.
//!
//! [`ArborEngine`] speaks the declarative route the paper used with its
//! first system (ArborQL text with parameters, plan cache warm); it also
//! exposes the imperative traversal-framework variants and the three §4
//! recommendation phrasings for the §4 ablations.
//!
//! [`BitEngine`] speaks the imperative route of the second system:
//! `find_object` → `neighbors`/`explode` navigation, hash-map counting, and
//! client-side sorting/limiting ("the entire result set must be retrieved
//! and filtered programmatically to display only the top-n rows").

pub mod arbor;
pub mod bit;

pub use arbor::{ArborEngine, RecommendationPhrasing};
pub use bit::BitEngine;

#[cfg(test)]
mod tests {
    use super::{ArborEngine, BitEngine};
    use crate::engine::MicroblogEngine;
    use crate::ingest::build_engines;
    use micrograph_datagen::{generate, GenConfig, UpdateEvent};

    /// Whether `uid` has a `followers` value above `threshold` — Q1.1
    /// selects on that property alone, so at `i64::MIN` this says whether
    /// the user has one at all.
    fn over(e: &dyn MicroblogEngine, uid: i64, threshold: i64) -> bool {
        e.users_with_followers_over(threshold).unwrap().binary_search(&uid).is_ok()
    }

    /// The ghost contract of `ensure_user`, the `NewFollow` bump,
    /// `bump_followers` and the `NewUser` upsert, on one backend.
    fn ghosts_stay_bare(e: &dyn MicroblogEngine) {
        let (ghost, placeholder) = (1_001i64, 1_002i64);
        e.ensure_user(ghost).unwrap();
        assert!(!over(e, ghost, i64::MIN), "{}: ensure_user makes a bare node", e.name());

        let follow = UpdateEvent::NewFollow { follower: 1, followee: ghost as u64 };
        e.apply_event(&follow).unwrap();
        assert!(e.followees(1).unwrap().contains(&ghost), "{}: the edge resolves", e.name());
        assert!(!over(e, ghost, i64::MIN), "{}: a follow leaves a ghost bare", e.name());
        e.bump_followers(ghost, 1).unwrap();
        assert!(!over(e, ghost, i64::MIN), "{}: a bump leaves a ghost bare", e.name());

        e.apply_event(&UpdateEvent::NewUser { uid: ghost as u64, name: "g".into() }).unwrap();
        assert!(over(e, ghost, -1) && !over(e, ghost, 0), "{}: NewUser starts at 0", e.name());

        e.bump_followers(placeholder, 3).unwrap();
        e.apply_event(&UpdateEvent::NewUser { uid: placeholder as u64, name: "p".into() })
            .unwrap();
        assert!(
            over(e, placeholder, 2) && !over(e, placeholder, 3),
            "{}: NewUser keeps a placeholder's count",
            e.name()
        );
    }

    fn engines(tag: &str) -> (ArborEngine, BitEngine, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("core-ghost-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files = generate(&GenConfig::unit()).write_csv(&dir).unwrap();
        let (arbor, bit, _) = build_engines(&files).unwrap();
        (arbor, bit, dir)
    }

    #[test]
    fn arbor_ghosts_stay_bare() {
        let (arbor, _, dir) = engines("arbor");
        ghosts_stay_bare(&arbor);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_ghosts_stay_bare() {
        let (_, bit, dir) = engines("bit");
        ghosts_stay_bare(&bit);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
