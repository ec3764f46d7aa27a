//! Fixture: a nested workspace's forwarding `ShardGame` impl. Were the
//! walk to scan it, the impl would root R1 and reach the un-indexed
//! draw in `crates/games/src/timed.rs`, which nothing else calls.

pub struct Timed<G> {
    inner: G,
    factory: RngFactory,
}

impl<G: ShardGame> ShardGame for Timed<G> {
    fn play(&self, sid: u32) -> u64 {
        let mut rng = self.factory.stream("timed");
        timed_replay_draw(&self.factory) + self.inner.play(sid) + rng.gen()
    }
}
