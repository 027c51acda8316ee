//! The writer: numbers, strings and the shortest round-trip `f64` digits.
//!
//! [`write_number`] has three branches. Non-finite values write `null`;
//! integral values below 2^53 in magnitude write their `i64` digits (so
//! `-0.0` writes `0`); every other value writes exactly what
//! `format!("{x}")` writes: the shortest digit string that parses back to
//! `x`, the one closest to `x` among those, laid out without an exponent
//! (`1e21` writes `1000000000000000000000`, `1e-7` writes `0.0000001`).
//!
//! The digits come from Ryū (Adams, PLDI 2018). An `f64` is `m2·2^e2`
//! with a 53-bit `m2`; the values that round to it form the interval
//! `[(4·m2 − 1 − s)/4, (4·m2 + 2)/4]·2^e2`, where `s = 1` except at the
//! bottom of a binade (the gap below a power of two is half the gap
//! above). Ryū scales the three bounds by one power of ten, `10^−q`, using
//! a 128-bit fixed-point multiplier of `5^±q` from a table, so all three
//! fit a `u64`. It then drops decimal digits from all three at once while
//! the truncated bounds still differ. What is left is the shortest digit
//! string inside the interval, and the last dropped digit of the scaled
//! value rounds it to the closest. When the scaled value lies exactly
//! halfway between two shortest candidates, Ryū picks the even one and
//! `format!` rounds up; this writer follows `format!`.
//!
//! The two multiplier tables are computed at compile time by `const fn`s
//! with exact big-integer arithmetic; a unit test checks every entry's
//! defining inequality.

use std::fmt::Write as _;

/// Bits kept of each `5^i` and `2^k/5^i` multiplier (Ryū's
/// `DOUBLE_POW5_BITCOUNT` and `DOUBLE_POW5_INV_BITCOUNT`).
const POW5_BITS: u32 = 125;

/// `5^i` for the scaled-up branch: `e2 < 0` reaches `i = 325`.
const POW5_LEN: usize = 326;

/// `2^k/5^q` for the scaled-down branch: `e2 ≤ 969` reaches `q = 291`.
const POW5_INV_LEN: usize = 292;

/// `POW5[i]` is the top [`POW5_BITS`] bits of `5^i`: `⌊5^i / 2^(b − 125)⌋`
/// with `b` the bit length of `5^i` (a left shift when `b < 125`).
static POW5: [u128; POW5_LEN] = pow5_table();

/// `POW5_INV[q]` is `⌊2^(b − 1 + 125) / 5^q⌋ + 1` with `b` the bit length
/// of `5^q`.
static POW5_INV: [u128; POW5_INV_LEN] = pow5_inv_table();

/// Limbs of the compile-time big integers: 1024 bits hold `5^325`
/// (755 bits) and the `2^INV_SHIFT` numerator.
const LIMBS: usize = 16;

/// A big integer, least significant 64-bit limb first.
type Big = [u64; LIMBS];

/// The numerator `2^INV_SHIFT` that `POW5_INV` divides; it exceeds every
/// `2^(b − 1 + 125)` the table needs (800 bits at `q = 291`).
const INV_SHIFT: u32 = 1000;

const fn bit_len(x: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return i as u32 * 64 + (64 - x[i].leading_zeros());
        }
    }
    0
}

const fn limb(x: &Big, i: usize) -> u64 {
    if i < LIMBS {
        x[i]
    } else {
        0
    }
}

/// The 128 bits of `x` starting at bit `shift`: `⌊x / 2^shift⌋ mod 2^128`.
const fn bits_from(x: &Big, shift: u32) -> u128 {
    let w = (shift / 64) as usize;
    let b = shift % 64;
    let lo = limb(x, w) as u128 | (limb(x, w + 1) as u128) << 64;
    if b == 0 {
        lo
    } else {
        (lo >> b) | (limb(x, w + 2) as u128) << (128 - b)
    }
}

const fn mul_small(x: &mut Big, k: u64) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * k as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0, "big integer overflow");
}

/// `x ← ⌊x / k⌋`.
const fn div_small(x: &mut Big, k: u64) {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let t = rem << 64 | x[i] as u128;
        x[i] = (t / k as u128) as u64;
        rem = t % k as u128;
    }
}

const fn pow5_table() -> [u128; POW5_LEN] {
    let mut table = [0u128; POW5_LEN];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let mut i = 0;
    while i < POW5_LEN {
        let len = bit_len(&p);
        table[i] = if len <= POW5_BITS {
            bits_from(&p, 0) << (POW5_BITS - len)
        } else {
            bits_from(&p, len - POW5_BITS)
        };
        mul_small(&mut p, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; POW5_INV_LEN] {
    let mut table = [0u128; POW5_INV_LEN];
    // `pow` runs through 5^q; `quot` through ⌊2^INV_SHIFT / 5^q⌋, which is
    // exact because ⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋. Shifting `quot` right then gives
    // ⌊2^n / 5^q⌋ for any n ≤ INV_SHIFT by the same identity.
    let mut pow: Big = [0; LIMBS];
    pow[0] = 1;
    let mut quot: Big = [0; LIMBS];
    quot[(INV_SHIFT / 64) as usize] = 1 << (INV_SHIFT % 64);
    let mut q = 0;
    while q < POW5_INV_LEN {
        let n = bit_len(&pow) - 1 + POW5_BITS;
        table[q] = bits_from(&quot, INV_SHIFT - n) + 1;
        mul_small(&mut pow, 5);
        div_small(&mut quot, 5);
        q += 1;
    }
    table
}

/// `⌈log2 5^e⌉` for `e ≥ 1`, and 1 at `e = 0`: the bit length of `5^e`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10 2^e⌋` for `e ≤ 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `e ≤ 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · mul / 2^j⌋` for `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let lo = m as u128 * (mul as u64) as u128;
    let hi = m as u128 * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest decimal `digits · 10^exponent` that rounds to the positive
/// finite `f64` with the given raw mantissa and exponent fields, the
/// closest to it among those, halfway cases rounded up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    const MANTISSA_BITS: i32 = 52;
    const BIAS: i32 = 1023;
    // Two extra bits so the interval's bounds are integers.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-half-even parsing accepts the bounds themselves when m2 is even.
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the bounds mm < mv < mp by a power of ten. `vm_exact`: the
    // scaled lower bound is an integer, so a digit string equal to it is
    // inside the interval.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    let scaled = |mul: u128, j: u32| {
        (
            mul_shift(4 * m2, mul, j),
            mul_shift(4 * m2 + 2, mul, j),
            mul_shift(4 * m2 - 1 - mm_shift, mul, j),
        )
    };
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q) - 1;
        let i = (-e2 + q as i32 + k as i32) as u32;
        (vr, vp, vm) = scaled(POW5_INV[q as usize], i);
        // At most one of mp, mv, mm is a multiple of 5; a bound is exact
        // when it is a multiple of 5^q.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5((-e2) as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = (-e2 - q as i32) as u32;
        let k = pow5_bits(i) as i32 - POW5_BITS as i32;
        let j = (q as i32 - k) as u32;
        (vr, vp, vm) = scaled(POW5[i as usize], j);
        if q <= 1 {
            // The bounds are exact when they have q trailing zero bits.
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the truncated bounds still differ; the last digit
    // dropped from the value rounds what is left. Ryū also tracks whether
    // the value's dropped digits are exactly 5000…, to round such halves
    // to even; `format!` rounds them up, which the last digit alone does.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_exact &= vm % 10 == 0;
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_exact {
        // Rare: the exact lower bound may end in more zeros to drop.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Take vr + 1 when vr is outside the interval or the value rounds up.
    let outside = vr == vm && !vm_exact;
    (vr + u64::from(outside || last_removed >= 5), e10 + removed)
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n`'s decimal digits so they end at `buf[end]` (exclusive) and
/// returns where they start.
fn digits_before(mut n: u64, buf: &mut [u8], end: usize) -> usize {
    let mut i = end;
    while n >= 100 {
        let r = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[r..r + 2]);
    }
    if n >= 10 {
        let r = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[r..r + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("ASCII"));
}

fn push_zeros(out: &mut String, mut n: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let k = n.min(ZEROS.len());
        out.push_str(&ZEROS[..k]);
        n -= k;
    }
}

/// Append `n`'s decimal digits, with a `-` when negative.
pub fn write_i64(n: i64, out: &mut String) {
    let mut buf = [0u8; 20];
    let start = digits_before(n.unsigned_abs(), &mut buf, 20);
    if n < 0 {
        out.push('-');
    }
    push_ascii(out, &buf[start..]);
}

/// Append `x` as a JSON number: `null` when not finite, the `i64` digits
/// when integral with |x| < 2^53, and otherwise exactly `format!("{x}")`.
pub fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        out.push_str("null");
        return;
    }
    if x.abs() < 9_007_199_254_740_992.0 {
        let n = x as i64;
        if n as f64 == x {
            write_i64(n, out);
            return;
        }
    }
    let bits = x.to_bits();
    let (digits, exp) = shortest(bits & ((1 << 52) - 1), (bits >> 52) as u32 & 0x7ff);
    // The digits (at most 17) end the buffer; a point, or `0.` and leading
    // zeros, go in front of them while they fit. Longer layouts push their
    // zeros separately.
    let mut buf = [0u8; 40];
    let end = buf.len();
    let start = digits_before(digits, &mut buf, end);
    let n = (end - start) as i32;
    if x < 0.0 {
        out.push('-');
    }
    if exp >= 0 {
        // An integer of 17 or more digits: the digits, then zeros.
        push_ascii(out, &buf[start..end]);
        push_zeros(out, exp as usize);
    } else if n + exp > 0 {
        // The point falls inside the digits: shift the integer part left.
        let point = (n + exp) as usize;
        buf.copy_within(start..start + point, start - 1);
        buf[start - 1 + point] = b'.';
        push_ascii(out, &buf[start - 1..end]);
    } else {
        // 0.000ddd
        let zeros = (-(n + exp)) as usize;
        if zeros + 2 <= start {
            let lead = start - zeros - 2;
            buf[lead..lead + 2].copy_from_slice(b"0.");
            buf[lead + 2..start].fill(b'0');
            push_ascii(out, &buf[lead..end]);
        } else {
            out.push_str("0.");
            push_zeros(out, zeros);
            push_ascii(out, &buf[start..end]);
        }
    }
}

/// Append `s` as a JSON string literal, escaping `"`, `\` and every
/// control character.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a · b` for a big integer `a` and a `u128` `b`, in a wider integer.
    fn mul_u128(a: &Big, b: u128) -> [u64; LIMBS + 2] {
        let mut out = [0u64; LIMBS + 2];
        for (j, bj) in [b as u64, (b >> 64) as u64].into_iter().enumerate() {
            let mut carry = 0u128;
            for (i, &ai) in a.iter().enumerate() {
                let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[LIMBS + j] = carry as u64;
        }
        out
    }

    fn wide(a: &Big) -> [u64; LIMBS + 2] {
        let mut out = [0u64; LIMBS + 2];
        out[..LIMBS].copy_from_slice(a);
        out
    }

    fn pow2(n: u32) -> [u64; LIMBS + 2] {
        let mut out = [0u64; LIMBS + 2];
        out[(n / 64) as usize] = 1 << (n % 64);
        out
    }

    fn shl(a: &[u64; LIMBS + 2], n: u32) -> [u64; LIMBS + 2] {
        let mut out = [0u64; LIMBS + 2];
        for bit in 0..(64 * (LIMBS + 2) as u32 - n) {
            if a[(bit / 64) as usize] >> (bit % 64) & 1 == 1 {
                let to = bit + n;
                out[(to / 64) as usize] |= 1 << (to % 64);
            }
        }
        out
    }

    /// Compare as little-endian big integers.
    fn cmp(a: &[u64; LIMBS + 2], b: &[u64; LIMBS + 2]) -> std::cmp::Ordering {
        a.iter().rev().cmp(b.iter().rev())
    }

    /// Every entry satisfies its defining inequality, checked by exact
    /// multiplication rather than the division the table was built with.
    #[test]
    fn multiplier_tables_are_exact() {
        use std::cmp::Ordering::*;
        let mut pow: Big = [0; LIMBS];
        pow[0] = 1;
        for i in 0..POW5_LEN {
            let len = bit_len(&pow);
            assert_eq!(pow5_bits(i as u32), len, "pow5_bits({i})");
            // POW5[i]·2^s ≤ 5^i < (POW5[i] + 1)·2^s, s = len − 125 (or
            // 5^i·2^−s = POW5[i] exactly when s < 0).
            let p = POW5[i];
            if len <= POW5_BITS {
                assert_eq!(
                    p,
                    (pow[0] as u128 | (pow[1] as u128) << 64) << (POW5_BITS - len)
                );
            } else {
                let s = len - POW5_BITS;
                let mut one: Big = [0; LIMBS];
                one[0] = 1;
                let lo = shl(&mul_u128(&one, p), s);
                let hi = shl(&mul_u128(&one, p + 1), s);
                assert_ne!(cmp(&lo, &wide(&pow)), Greater, "POW5[{i}] too big");
                assert_eq!(cmp(&wide(&pow), &hi), Less, "POW5[{i}] too small");
            }
            if i < POW5_INV_LEN {
                // (g − 1)·5^i ≤ 2^n < g·5^i, n = len − 1 + 125.
                let g = POW5_INV[i];
                let n = len - 1 + POW5_BITS;
                assert_ne!(
                    cmp(&mul_u128(&pow, g - 1), &pow2(n)),
                    Greater,
                    "POW5_INV[{i}] too big"
                );
                assert_eq!(
                    cmp(&pow2(n), &mul_u128(&pow, g)),
                    Less,
                    "POW5_INV[{i}] too small"
                );
            }
            mul_small(&mut pow, 5);
        }
        // Two entries of Ryū's published tables.
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5[1], 5 << 122);
    }

    fn written(x: f64) -> String {
        let mut out = String::new();
        write_number(x, &mut out);
        out
    }

    #[test]
    fn layouts_and_ties_follow_display() {
        for (x, text) in [
            (0.5, "0.5"),
            (-0.0, "0"),
            (-3.0, "-3"),
            (1e21, "1000000000000000000000"),
            (1e-7, "0.0000001"),
            (123.456, "123.456"),
            (0.1 + 0.2, "0.30000000000000004"),
            (2f64.powi(60), "1152921504606847000"),
            // Exactly halfway between ….2 and ….3: rounded up, not to even.
            (2f64.powi(50) + 0.25, "1125899906842624.3"),
            (2f64.powi(50) + 0.75, "1125899906842624.8"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(written(x), text, "{x:e}");
        }
        let tiny = written(f64::from_bits(1));
        assert_eq!(tiny.len(), 2 + 324);
        assert!(tiny.starts_with("0.000") && tiny.ends_with("0005"));
        assert_eq!(written(f64::MAX).len(), 309);
    }

    #[test]
    fn integers_write_their_digits() {
        for n in [0, 7, -7, 10, 99, 100, -101, i64::MAX, i64::MIN] {
            let mut out = String::new();
            write_i64(n, &mut out);
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn log_approximations_hold_over_the_tables() {
        for e in 0..1650u32 {
            let exact = (e as f64 * 2f64.log10()).floor() as u32;
            // The float estimate is only trusted away from integers.
            if (e as f64 * 2f64.log10()).fract() > 1e-9 {
                assert_eq!(log10_pow2(e), exact, "log10_pow2({e})");
            }
        }
        for e in 0..2620u32 {
            if (e as f64 * 5f64.log10()).fract() > 1e-9 {
                assert_eq!(log10_pow5(e), (e as f64 * 5f64.log10()).floor() as u32);
            }
        }
    }
}
