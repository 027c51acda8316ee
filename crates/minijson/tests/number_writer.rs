//! Differential test of the shortest round-trip number writer.
//!
//! `write_number` must write, byte for byte, what the `format!`-based
//! writer it replaced wrote: `null` for non-finite values, the `i64`
//! digits of integral values below 2^53 in magnitude, and `format!("{x}")`
//! for everything else. Every input is checked at both signs.

use minijson::{write_number, Value};

/// The writer `write_number` replaced.
fn reference(x: f64) -> String {
    if !x.is_finite() {
        "null".to_string()
    } else if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn check(x: f64) {
    for x in [x, -x] {
        let mut out = String::from("[");
        write_number(x, &mut out);
        assert_eq!(
            &out[1..],
            reference(x),
            "bits {:#018x} ({x:e})",
            x.to_bits()
        );
    }
}

/// Splitmix64: a seeded stream of bit patterns.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn neighbours(x: f64) -> [f64; 3] {
    [x.next_down(), x, x.next_up()]
}

#[test]
fn random_bit_patterns_match_format() {
    let mut bits = Bits(0x5EED_2026);
    for _ in 0..1_000_000 {
        check(f64::from_bits(bits.next()));
    }
}

#[test]
fn random_short_decimals_match_format() {
    // Values as people write them: a few significant digits at a power of
    // ten, the common case on the served path.
    let mut bits = Bits(7);
    for _ in 0..200_000 {
        let r = bits.next();
        let digits = r % 10u64.pow(1 + (r >> 40) as u32 % 9);
        let exp = (r >> 48) as i32 % 40 - 20;
        check(format!("{digits}e{exp}").parse().unwrap());
    }
}

#[test]
fn powers_of_two_and_ten_match_format() {
    for e in -1074..=1023 {
        for x in neighbours(2f64.powi(e)) {
            check(x);
        }
    }
    for e in -323..=308 {
        let x: f64 = format!("1e{e}").parse().unwrap();
        for x in neighbours(x) {
            check(x);
        }
    }
}

#[test]
fn edge_values_match_format() {
    let two53 = 2f64.powi(53);
    let mut cases = vec![
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::INFINITY,
        f64::NAN,
        two53,
        1e21,
        1e-7,
        0.1 + 0.2,
    ];
    cases.extend(neighbours(two53));
    cases.extend(neighbours(f64::MIN_POSITIVE));
    cases.extend(neighbours(1e21));
    cases.extend(neighbours(1e-7));
    for x in cases {
        check(x);
    }
    // Every subnormal exponent slot, and a seeded sample of mantissas.
    let mut bits = Bits(11);
    for shift in 0..52 {
        check(f64::from_bits(1 << shift));
        check(f64::from_bits((1 << shift) - 1));
    }
    for _ in 0..20_000 {
        check(f64::from_bits(bits.next() & 0x000F_FFFF_FFFF_FFFF));
    }
}

#[test]
fn rounding_boundaries_match_format() {
    // Exact halves between two shortest candidates: k + 1/4 and k + 3/4
    // just below 2^52, and k + 1/2 just below 2^53, where Ryū rounds to
    // even and `format!` rounds up.
    let mut bits = Bits(13);
    for _ in 0..20_000 {
        let k = (bits.next() >> 14) as f64; // < 2^50
        let top = 2f64.powi(50) + k.min(2f64.powi(50) - 1.0);
        for frac in [0.25, 0.5, 0.75] {
            check(top + frac);
        }
        check(2f64.powi(51) + (bits.next() >> 14) as f64 + 0.5);
    }
    // Integers above 2^53 whose shortest digits end in a rounded digit.
    for _ in 0..20_000 {
        let m = bits.next() >> 11 | 1 << 52;
        let e = (bits.next() % 80) as i32;
        check(m as f64 * 2f64.powi(e));
    }
    // Both ends of every binade (the asymmetric interval at a power of
    // two), with the mantissa's low bits set and cleared.
    for exp in 1..2047u64 {
        for mantissa in [0, 1, 2, 3, 0x000F_FFFF_FFFF_FFFF, 0x0008_0000_0000_0000] {
            check(f64::from_bits(exp << 52 | mantissa));
        }
    }
}

#[test]
fn committed_result_numbers_match_format() {
    // Every number in the committed `results/*.json` and `*.jsonl`.
    fn walk(v: &Value, out: &mut Vec<f64>) {
        match v {
            Value::Number(x) => out.push(*x),
            Value::Array(items) => items.iter().for_each(|x| walk(x, out)),
            Value::Object(members) => members.iter().for_each(|(_, x)| walk(x, out)),
            _ => {}
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut numbers = Vec::new();
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("results directory") {
        let path = entry.unwrap().path();
        // A `.json` file is one document; a `.jsonl` file is one per line.
        let documents = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => vec![std::fs::read_to_string(&path).unwrap()],
            Some("jsonl") => std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .map(String::from)
                .collect(),
            _ => continue,
        };
        for text in documents {
            let v = Value::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            walk(&v, &mut numbers);
        }
        files += 1;
    }
    assert!(files >= 20, "found {files} result files");
    assert!(numbers.len() > 10_000, "found {} numbers", numbers.len());
    for x in numbers {
        check(x);
    }
}
