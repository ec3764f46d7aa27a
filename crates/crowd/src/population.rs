//! Population building: reproducible mixes of player archetypes.
//!
//! Experiments specify crowds declaratively — "85% honest, 10% noisy, 5%
//! colluders, skill ~ U(0.6, 0.95)" — and [`PopulationBuilder`] realizes
//! them deterministically from an [`RngFactory`](hc_sim::RngFactory)
//! stream, assigning platform [`PlayerId`]s in order.

use crate::behavior::Behavior;
use crate::player::PlayerProfile;
use crate::response::ResponseTimeModel;
use hc_core::{Label, PlayerId};
use hc_sim::dist::DiscreteDist;
use rand::Rng;

/// A weighted mix of behaviour archetypes.
#[derive(Debug, Clone)]
pub struct ArchetypeMix {
    entries: Vec<(Behavior, f64)>,
}

impl ArchetypeMix {
    /// A fully honest crowd.
    #[must_use]
    pub fn all_honest() -> Self {
        ArchetypeMix {
            entries: vec![(Behavior::Honest, 1.0)],
        }
    }

    /// The default "realistic web crowd" used by the experiments: mostly
    /// honest, some noisy and lazy, a pinch of pure noise.
    #[must_use]
    pub fn realistic() -> Self {
        ArchetypeMix {
            entries: vec![
                (Behavior::Honest, 0.70),
                (Behavior::Noisy { error_rate: 0.15 }, 0.20),
                (Behavior::Lazy { pass_rate: 0.25 }, 0.07),
                (Behavior::Random, 0.03),
            ],
        }
    }

    /// A crowd with an injected fraction of colluders all using the same
    /// strategy label.
    #[must_use]
    pub fn with_colluders(honest_share: f64, colluder_share: f64, strategy: &str) -> Self {
        let honest = honest_share.max(0.0);
        let coll = colluder_share.max(0.0);
        ArchetypeMix {
            entries: vec![
                (Behavior::Honest, honest),
                (
                    Behavior::Colluder {
                        strategy_label: Label::new(strategy),
                    },
                    coll,
                ),
            ],
        }
    }

    /// Starts an empty mix for custom construction.
    #[must_use]
    pub fn custom() -> Self {
        ArchetypeMix {
            entries: Vec::new(),
        }
    }

    /// Adds an archetype with a weight.
    #[must_use]
    pub fn with(mut self, behavior: Behavior, weight: f64) -> Self {
        self.entries.push((behavior, weight));
        self
    }

    /// Samples one behaviour.
    ///
    /// # Panics
    ///
    /// Panics when the mix is empty or weights are invalid (experiment
    /// setup errors).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Behavior {
        let weights: Vec<f64> = self.entries.iter().map(|(_, w)| *w).collect();
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract for empty or invalid mixes"
        )]
        let dist = DiscreteDist::new(&weights).expect("archetype mix must have valid weights");
        self.entries[dist.sample(rng)].0.clone()
    }

    /// Number of archetypes in the mix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no archetypes have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Declarative population specification.
#[derive(Debug, Clone)]
pub struct PopulationBuilder {
    size: usize,
    mix: ArchetypeMix,
    skill_lo: f64,
    skill_hi: f64,
    response: ResponseTimeModel,
    first_id: u64,
}

impl PopulationBuilder {
    /// Starts a builder for `size` players with a realistic mix and skill
    /// uniform in `[0.6, 0.95]`.
    #[must_use]
    pub fn new(size: usize) -> Self {
        PopulationBuilder {
            size,
            mix: ArchetypeMix::realistic(),
            skill_lo: 0.6,
            skill_hi: 0.95,
            response: ResponseTimeModel::default(),
            first_id: 0,
        }
    }

    /// Overrides the archetype mix.
    #[must_use]
    pub fn mix(mut self, mix: ArchetypeMix) -> Self {
        self.mix = mix;
        self
    }

    /// Overrides the skill range (clamped to `[0, 1]`, swapped if
    /// reversed).
    #[must_use]
    pub fn skill_range(mut self, lo: f64, hi: f64) -> Self {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        self.skill_lo = lo.min(hi);
        self.skill_hi = lo.max(hi);
        self
    }

    /// Overrides the response-time model.
    #[must_use]
    pub fn response(mut self, model: ResponseTimeModel) -> Self {
        self.response = model;
        self
    }

    /// Sets the first [`PlayerId`] to assign (players get consecutive ids).
    #[must_use]
    pub fn first_id(mut self, id: u64) -> Self {
        self.first_id = id;
        self
    }

    /// Realizes the population.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Population {
        let players = (0..self.size)
            .map(|i| {
                let skill = if self.skill_hi > self.skill_lo {
                    rng.gen_range(self.skill_lo..self.skill_hi)
                } else {
                    self.skill_lo
                };
                PlayerProfile::new(
                    PlayerId::new(self.first_id + i as u64),
                    skill,
                    self.mix.sample(rng),
                    self.response,
                )
            })
            .collect();
        Population::from_profiles(players)
    }
}

/// A realized set of player profiles.
#[derive(Debug, Clone)]
pub struct Population {
    players: Vec<PlayerProfile>,
    /// Whether slot `i` holds id `first + i`, as in every builder
    /// population: lookups then index the slot instead of scanning.
    dense: bool,
}

impl Population {
    /// Builds a population directly from explicit profiles (for hand-
    /// crafted experiment setups, e.g. planting specific colluders). Ids
    /// may be in any order; lookups resolve to the first profile holding
    /// the id.
    #[must_use]
    pub fn from_profiles(players: Vec<PlayerProfile>) -> Self {
        let first = players.first().map_or(0, |p| p.id.raw());
        let dense = players
            .iter()
            .zip(0u64..)
            .all(|(p, i)| first.checked_add(i) == Some(p.id.raw()));
        Population { players, dense }
    }

    /// Number of players.
    #[must_use]
    pub fn len(&self) -> usize {
        self.players.len()
    }

    /// `true` when the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.players.is_empty()
    }

    /// The players, in id order.
    #[must_use]
    pub fn players(&self) -> &[PlayerProfile] {
        &self.players
    }

    /// The players, in id order, moved out of the population.
    #[must_use]
    pub fn into_players(self) -> Vec<PlayerProfile> {
        self.players
    }

    /// The slot holding `id`: O(1) for a dense population, a scan
    /// otherwise.
    fn slot(&self, id: PlayerId) -> Option<usize> {
        if !self.dense {
            return self.players.iter().position(|p| p.id == id);
        }
        let first = self.players.first()?.id.raw();
        let i = usize::try_from(id.raw().checked_sub(first)?).ok()?;
        (self.players.get(i)?.id == id).then_some(i)
    }

    /// Looks up a player by id.
    #[must_use]
    pub fn get(&self, id: PlayerId) -> Option<&PlayerProfile> {
        self.players.get(self.slot(id)?)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: PlayerId) -> Option<&mut PlayerProfile> {
        let i = self.slot(id)?;
        self.players.get_mut(i)
    }

    /// Mutable access to two *distinct* players at once (needed to seat a
    /// pair in a session, since behaviours carry per-player state).
    /// Returns `None` when either id is missing or the ids are equal.
    pub fn get_pair_mut(
        &mut self,
        a: PlayerId,
        b: PlayerId,
    ) -> Option<(&mut PlayerProfile, &mut PlayerProfile)> {
        if a == b {
            return None;
        }
        let ia = self.slot(a)?;
        let ib = self.slot(b)?;
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        let (left, right) = self.players.split_at_mut(hi);
        let (first, second) = (&mut left[lo], &mut right[0]);
        if ia < ib {
            Some((first, second))
        } else {
            Some((second, first))
        }
    }

    /// Fraction of adversarial players.
    #[must_use]
    pub fn adversarial_share(&self) -> f64 {
        if self.players.is_empty() {
            return 0.0;
        }
        self.players.iter().filter(|p| p.is_adversarial()).count() as f64
            / self.players.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn count_of(pop: &Population, archetype: &str) -> usize {
        pop.players()
            .iter()
            .filter(|p| p.archetype() == archetype)
            .count()
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let builder = PopulationBuilder::new(50);
        let a = builder.build(&mut rand::rngs::StdRng::seed_from_u64(1));
        let b = builder.build(&mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(a.players(), b.players());
        assert_eq!(a.into_players(), b.players());
    }

    #[test]
    fn ids_are_consecutive_from_first_id() {
        let pop = PopulationBuilder::new(5).first_id(100).build(&mut rng());
        let ids: Vec<u64> = pop.players().iter().map(|p| p.id.raw()).collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn realistic_mix_shares_are_plausible() {
        let pop = PopulationBuilder::new(2000).build(&mut rng());
        let honest = count_of(&pop, "honest") as f64 / 2000.0;
        assert!((honest - 0.70).abs() < 0.05, "honest share {honest}");
        assert_eq!(pop.adversarial_share(), 0.0);
    }

    #[test]
    fn colluder_mix_counts() {
        let mix = ArchetypeMix::with_colluders(0.8, 0.2, "attack");
        let pop = PopulationBuilder::new(1000).mix(mix).build(&mut rng());
        let share = pop.adversarial_share();
        assert!((share - 0.2).abs() < 0.05, "colluder share {share}");
    }

    #[test]
    fn skill_range_is_respected_and_swapped() {
        let pop = PopulationBuilder::new(100)
            .skill_range(0.9, 0.3)
            .build(&mut rng());
        for p in pop.players() {
            assert!((0.3..=0.9).contains(&p.skill));
        }
        // Degenerate range.
        let pop = PopulationBuilder::new(10)
            .skill_range(0.5, 0.5)
            .build(&mut rng());
        assert!(pop.players().iter().all(|p| p.skill == 0.5));
    }

    #[test]
    fn lookup_by_id() {
        let mut pop = PopulationBuilder::new(3).build(&mut rng());
        assert!(pop.get(PlayerId::new(2)).is_some());
        assert!(pop.get(PlayerId::new(9)).is_none());
        assert!(pop.get_mut(PlayerId::new(0)).is_some());
        assert_eq!(pop.len(), 3);
        assert!(!pop.is_empty());
    }

    #[test]
    fn get_pair_mut_handles_orders_and_errors() {
        let mut pop = PopulationBuilder::new(4).build(&mut rng());
        {
            let (a, b) = pop
                .get_pair_mut(PlayerId::new(1), PlayerId::new(3))
                .unwrap();
            assert_eq!(a.id, PlayerId::new(1));
            assert_eq!(b.id, PlayerId::new(3));
        }
        {
            let (a, b) = pop
                .get_pair_mut(PlayerId::new(3), PlayerId::new(1))
                .unwrap();
            assert_eq!(a.id, PlayerId::new(3));
            assert_eq!(b.id, PlayerId::new(1));
        }
        assert!(pop
            .get_pair_mut(PlayerId::new(1), PlayerId::new(1))
            .is_none());
        assert!(pop
            .get_pair_mut(PlayerId::new(1), PlayerId::new(99))
            .is_none());
    }

    #[test]
    fn custom_mix_builds() {
        let mix = ArchetypeMix::custom()
            .with(Behavior::Honest, 0.5)
            .with(Behavior::Random, 0.5);
        assert_eq!(mix.len(), 2);
        assert!(!mix.is_empty());
        let pop = PopulationBuilder::new(200).mix(mix).build(&mut rng());
        assert!(count_of(&pop, "honest") > 0);
        assert!(count_of(&pop, "random") > 0);
    }

    #[test]
    fn all_honest_mix() {
        let pop = PopulationBuilder::new(20)
            .mix(ArchetypeMix::all_honest())
            .build(&mut rng());
        assert_eq!(count_of(&pop, "honest"), 20);
    }

    #[test]
    fn empty_population_edge_cases() {
        let pop = PopulationBuilder::new(0).build(&mut rng());
        assert!(pop.is_empty());
        assert_eq!(pop.adversarial_share(), 0.0);
    }
}
