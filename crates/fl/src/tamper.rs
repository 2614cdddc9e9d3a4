//! The dishonest server's model-manipulation hook.

use oasis_nn::Sequential;

/// A server-side modification applied to the global model right
/// before it is broadcast — the capability that defines the paper's
/// threat model ("a dishonest server is capable of making malicious
/// modifications to `w` before dispatching it to the users").
///
/// Only [`HonestServer`] implements this trait today. The attacks in
/// `oasis-attacks` build their malicious model through
/// `ActiveAttack::build_model` inside their own evaluation harness
/// rather than tampering with a live round; moving each attack onto
/// this hook is ROADMAP item 5.
pub trait ModelTamper: Send + Sync {
    /// Mutates the global model in place for round `round`.
    fn tamper(&self, model: &mut Sequential, round: usize);

    /// A short name for reports.
    fn name(&self) -> &str {
        "tamper"
    }
}

/// The honest server: broadcasts the model unmodified.
#[derive(Debug, Default, Clone, Copy)]
pub struct HonestServer;

impl ModelTamper for HonestServer {
    fn tamper(&self, _model: &mut Sequential, _round: usize) {}

    fn name(&self) -> &str {
        "honest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_nn::{flatten_params, Linear};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn honest_server_leaves_model_untouched() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(3, 2, &mut rng));
        let before = flatten_params(&mut model);
        HonestServer.tamper(&mut model, 0);
        assert_eq!(flatten_params(&mut model), before);
    }

    #[test]
    fn honest_server_has_a_name() {
        assert_eq!(ModelTamper::name(&HonestServer), "honest");
    }
}
