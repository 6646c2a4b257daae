//! Fractional-delay interpolation.
//!
//! The scene simulator places echoes at physically exact (non-integer)
//! sample delays; these helpers read and write signals at fractional
//! positions by linear interpolation.

/// Reads `signal` at fractional index `t` by linear interpolation.
/// Out-of-range positions return 0 (signals are zero outside support).
pub fn sample_linear(signal: &[f64], t: f64) -> f64 {
    if !t.is_finite() || t < 0.0 {
        return 0.0;
    }
    let i = t.floor() as usize;
    if i + 1 >= signal.len() {
        return if i < signal.len() {
            signal[i] * (1.0 - (t - i as f64))
        } else {
            0.0
        };
    }
    let frac = t - i as f64;
    signal[i] * (1.0 - frac) + signal[i + 1] * frac
}

/// Adds `source`, delayed by fractional `delay` samples and scaled by
/// `gain`, into `dest` using linear interpolation splatting.
///
/// This is the adjoint of [`sample_linear`]: each source sample deposits
/// into the two destination bins bracketing its delayed position, which is
/// how the simulator renders echoes at exact physical delays.
pub fn add_delayed(dest: &mut [f64], source: &[f64], delay: f64, gain: f64) {
    if !delay.is_finite() || delay < 0.0 {
        return;
    }
    let base = delay.floor() as usize;
    let frac = delay - base as f64;
    for (i, &v) in source.iter().enumerate() {
        let j = base + i;
        let g = v * gain;
        if j < dest.len() {
            dest[j] += g * (1.0 - frac);
        }
        if frac > 0.0 && j + 1 < dest.len() {
            dest[j + 1] += g * frac;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_interpolates_between_samples() {
        let s = [0.0, 10.0, 20.0];
        assert_eq!(sample_linear(&s, 0.0), 0.0);
        assert_eq!(sample_linear(&s, 0.5), 5.0);
        assert_eq!(sample_linear(&s, 1.25), 12.5);
    }

    #[test]
    fn linear_out_of_range_is_zero() {
        let s = [1.0, 2.0];
        assert_eq!(sample_linear(&s, -0.1), 0.0);
        assert_eq!(sample_linear(&s, 5.0), 0.0);
        assert_eq!(sample_linear(&s, f64::NAN), 0.0);
    }

    #[test]
    fn add_delayed_integer_delay_is_exact_copy() {
        let src = [1.0, 2.0, 3.0];
        let mut dst = vec![0.0; 10];
        add_delayed(&mut dst, &src, 4.0, 2.0);
        assert_eq!(&dst[4..7], &[2.0, 4.0, 6.0]);
        assert_eq!(dst[3], 0.0);
        assert_eq!(dst[7], 0.0);
    }

    #[test]
    fn add_delayed_fractional_splits_energy() {
        let src = [1.0];
        let mut dst = vec![0.0; 5];
        add_delayed(&mut dst, &src, 2.25, 1.0);
        assert!((dst[2] - 0.75).abs() < 1e-12);
        assert!((dst[3] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn add_delayed_accumulates() {
        let src = [1.0];
        let mut dst = vec![0.0; 4];
        add_delayed(&mut dst, &src, 1.0, 1.0);
        add_delayed(&mut dst, &src, 1.0, 0.5);
        assert!((dst[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn add_delayed_truncates_past_end() {
        let src = [1.0, 1.0, 1.0];
        let mut dst = vec![0.0; 3];
        add_delayed(&mut dst, &src, 2.0, 1.0);
        assert_eq!(dst, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn negative_delay_is_ignored() {
        let src = [1.0];
        let mut dst = vec![0.0; 3];
        add_delayed(&mut dst, &src, -1.0, 1.0);
        assert_eq!(dst, vec![0.0; 3]);
    }
}
