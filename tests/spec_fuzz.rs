//! Deterministic fuzzing of every spec grammar.
//!
//! A seeded, std-only mutator derives thousands of hostile strings
//! from the canonical spec corpus — byte flips, truncations, splices
//! of two entries and number substitutions (`NaN`, `inf`, `-0`,
//! `1e39`, `0`) — and holds every grammar to three invariants:
//!
//! * parsing never panics;
//! * every accepted string prints to a spec that re-parses equal;
//! * every accepted defense builds, and every accepted attack with at
//!   most 64 neurons builds against a 4-image calibration set, without
//!   panicking (construction errors are fine; panics are not).

use std::collections::BTreeSet;
use std::fmt::{Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

use oasis_campaign::CampaignSpec;
use oasis_image::Image;
use oasis_scenario::{
    AttackSpec, CodecSpec, DefenseSpec, NetSpec, PopulationSpec, SampleSpec, WorkloadSpec,
};

/// Canonical strings of every grammar, whitespace-separated: the
/// attack, defense, workload, codec, net, population, sample and
/// campaign vocabularies. These seed the mutants.
const CORPUS: &str = "\
    rtf:512 rtf:2 cah:400 cah:400,0.05 cah:1 qbi:128 qbi:128,16 qbi:1,2 linear \
    none oasis:MR oasis:mR oasis:SH oasis:HFlip oasis:VFlip oasis:MR+SH oasis:WO ats \
    dp:1,0.0003 clip:0.5 oasis:MR+dp:1,0.0003 oasis:MR+SH+dp:1,0.01+clip:3 ats+clip:0.5 \
    imagenette cifar100 imagenette100c cifar100c raw q8 topk:100 sign \
    ideal sim:20,8,0.05 sim:10,16,0.2,150 population:1024 sample:32 campaign:20 \
    campaign:3;3+leave=0.3+join=0.4+net=sim:10,16,0.2;3+alpha=0.5+attack=rtf:24|qbi:24 \
    campaign:20+join=0.2+leave=0.1+alpha=0.5+net=sim:20,8,0.05+attack=rtf:128;30+attack=rtf:128|qbi:96,4;10";

/// Replacements for a numeric token.
const NUMBERS: &[&str] = &["NaN", "inf", "-inf", "-0", "1e39", "0", "1", "-1"];

/// splitmix64: a tiny seeded generator, so the corpus needs no
/// dependency and every run replays the same mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Byte ranges of the numeric tokens in `s`.
fn number_spans(s: &str) -> Vec<(usize, usize)> {
    let bytes = s.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// One mutant of a corpus entry.
fn mutate(rng: &mut Rng, corpus: &[&str]) -> String {
    let s = rng.pick(corpus);
    match rng.below(4) {
        // Byte flip: one random bit of one random byte (non-UTF-8
        // results are replaced lossily, as a CLI argument would be).
        0 => {
            let mut bytes = s.as_bytes().to_vec();
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncation.
        1 => s[..rng.below(s.len() + 1)].to_string(),
        // Splice: a prefix of one entry and a suffix of another.
        2 => {
            let t = rng.pick(corpus);
            format!(
                "{}{}",
                &s[..rng.below(s.len() + 1)],
                &t[rng.below(t.len() + 1)..]
            )
        }
        // Number substitution.
        _ => {
            let spans = number_spans(s);
            if spans.is_empty() {
                return s.to_string();
            }
            let (a, b) = spans[rng.below(spans.len())];
            format!("{}{}{}", &s[..a], rng.pick(NUMBERS), &s[b..])
        }
    }
}

/// Parses `input` as `T`, failing the test (with the input) on a
/// panic, and checks that an accepted spec prints to a string that
/// re-parses equal.
fn parse_round_trip<T>(input: &str) -> Option<T>
where
    T: FromStr + Display + PartialEq + Debug,
{
    let parsed = catch_unwind(AssertUnwindSafe(|| input.parse::<T>()))
        .unwrap_or_else(|_| panic!("parsing `{input}` panicked"));
    let spec = parsed.ok()?;
    let printed = spec.to_string();
    let reparsed = printed
        .parse::<T>()
        .unwrap_or_else(|_| panic!("`{input}` printed as `{printed}`, which does not parse"));
    assert_eq!(reparsed, spec, "`{input}` printed as `{printed}`");
    Some(spec)
}

fn neurons(spec: &AttackSpec) -> usize {
    match *spec {
        AttackSpec::Rtf { neurons } | AttackSpec::Cah { neurons, .. } => neurons,
        AttackSpec::Qbi { neurons, .. } => neurons,
        AttackSpec::Linear => 0,
    }
}

#[test]
fn spec_grammars_survive_hostile_mutants() {
    let calibration: Vec<Image> = oasis_data::cifar_like_with(4, 1, 8, 3)
        .items()
        .iter()
        .map(|item| item.image.clone())
        .collect();
    assert_eq!(calibration.len(), 4);

    let corpus: Vec<&str> = CORPUS.split_whitespace().collect();
    let mut rng = Rng(0x5EED_F022);
    let mut inputs: Vec<String> = corpus.iter().map(|s| s.to_string()).collect();
    inputs.extend((0..6000).map(|_| mutate(&mut rng, &corpus)));

    let mut built = BTreeSet::new();
    let mut accepted = 0usize;
    for input in &inputs {
        if let Some(attack) = parse_round_trip::<AttackSpec>(input) {
            accepted += 1;
            if neurons(&attack) <= 64 && built.insert(attack.to_string()) {
                let _ = catch_unwind(|| attack.build(&calibration, 10).map(|_| ()))
                    .unwrap_or_else(|_| panic!("building attack `{attack}` panicked"));
            }
        }
        if let Some(defense) = parse_round_trip::<DefenseSpec>(input) {
            accepted += 1;
            if built.insert(defense.to_string()) {
                catch_unwind(|| defense.build())
                    .unwrap_or_else(|_| panic!("building defense `{defense}` panicked"));
            }
        }
        accepted += [
            parse_round_trip::<WorkloadSpec>(input).is_some(),
            parse_round_trip::<CodecSpec>(input).is_some(),
            parse_round_trip::<NetSpec>(input).is_some(),
            parse_round_trip::<PopulationSpec>(input).is_some(),
            parse_round_trip::<SampleSpec>(input).is_some(),
            parse_round_trip::<CampaignSpec>(input).is_some(),
        ]
        .iter()
        .filter(|&&ok| ok)
        .count();
    }
    // The mutants must exercise both sides of every grammar: the
    // corpus itself parses, and a good share of mutants do too.
    assert!(
        accepted > corpus.len() + 500,
        "only {accepted} of {} inputs parsed",
        inputs.len()
    );
}
