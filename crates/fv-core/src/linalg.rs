//! Small dense-vector kernels used by the conjugate-gradient solver.
//!
//! Kept deliberately allocation-free: every operation writes into
//! caller-provided storage, following the "reuse workhorse buffers" guidance
//! for hot HPC loops.

use crate::real::Real;

/// Dot product `xᵀy`.
#[inline]
pub fn dot<R: Real>(x: &[R], y: &[R]) -> R {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2<R: Real>(x: &[R]) -> R {
    dot(x, x).sqrt()
}

/// `y ← a·x + y`.
#[inline]
pub fn axpy<R: Real>(a: R, x: &[R], y: &mut [R]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the CG direction update).
#[inline]
pub fn xpby<R: Real>(x: &[R], b: R, y: &mut [R]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// `y ← x`.
#[inline]
pub fn copy<R: Real>(x: &[R], y: &mut [R]) {
    debug_assert_eq!(x.len(), y.len());
    y.copy_from_slice(x);
}

/// `x ← 0`.
#[inline]
pub fn zero<R: Real>(x: &mut [R]) {
    for xi in x.iter_mut() {
        *xi = R::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [3.0_f64, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0_f64, 2.0, 3.0];
        let mut y = [10.0_f64, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn xpby_is_cg_direction_update() {
        let r = [1.0_f64, 1.0];
        let mut p = [4.0_f64, 2.0];
        xpby(&r, 0.5, &mut p);
        assert_eq!(p, [3.0, 2.0]);
    }

    #[test]
    fn scale_copy_zero() {
        let x = [1.0_f32, -2.0];
        let mut y = [0.0_f32; 2];
        copy(&x, &mut y);
        assert_eq!(y, x);
        zero(&mut y);
        assert_eq!(y, [0.0, 0.0]);
    }

    #[test]
    fn empty_vectors_are_fine() {
        let e: [f64; 0] = [];
        assert_eq!(dot(&e, &e), 0.0);
        assert_eq!(norm2(&e), 0.0);
    }
}
