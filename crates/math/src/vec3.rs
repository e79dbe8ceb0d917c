//! 3-D vectors and unit vectors.
//!
//! [`Vec3`] is a plain Cartesian triple; [`UnitVec3`] is a newtype that
//! guarantees (up to floating-point error) unit norm, which lets the
//! localization code treat directions and positions as distinct types.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A Cartesian 3-vector of `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// Normalize, returning `None` for (near-)zero vectors.
    #[inline]
    pub fn try_normalize(self) -> Option<UnitVec3> {
        let n = self.norm();
        if n < 1e-300 {
            None
        } else {
            Some(UnitVec3(self / n))
        }
    }

    /// Normalize, panicking on a zero vector. Use in contexts where the
    /// vector is known non-zero (e.g. the difference of two distinct hits).
    #[inline]
    pub fn normalized(self) -> UnitVec3 {
        self.try_normalize().expect("cannot normalize zero vector")
    }

    /// Linear interpolation `self + t * (rhs - self)`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// The component array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Build from a component array.
    #[inline]
    pub fn from_array(a: [f64; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// A unit-norm direction in 3-space.
///
/// Constructed via [`Vec3::normalized`]/[`Vec3::try_normalize`] or the
/// spherical-coordinate constructor [`UnitVec3::from_spherical`]. The inner
/// vector is accessible via [`UnitVec3::as_vec`] or `Deref`-like `.0` is kept
/// private to preserve the invariant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UnitVec3(Vec3);

impl UnitVec3 {
    /// The +z axis, the detector zenith in ADAPT's frame.
    pub const PLUS_Z: UnitVec3 = UnitVec3(Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    });
    /// The +x axis.
    pub const PLUS_X: UnitVec3 = UnitVec3(Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    });
    /// The +y axis.
    pub const PLUS_Y: UnitVec3 = UnitVec3(Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    });

    /// From polar angle `theta` (radians from +z) and azimuth `phi`
    /// (radians from +x toward +y).
    #[inline]
    pub fn from_spherical(theta: f64, phi: f64) -> Self {
        let (st, ct) = theta.sin_cos();
        let (sp, cp) = phi.sin_cos();
        UnitVec3(Vec3::new(st * cp, st * sp, ct))
    }

    /// The underlying vector.
    #[inline]
    pub fn as_vec(self) -> Vec3 {
        self.0
    }

    /// Dot product with another unit vector: the cosine of the angle
    /// between them, clamped into `[-1, 1]` so `acos` is always safe.
    #[inline]
    pub fn cos_angle_to(self, rhs: UnitVec3) -> f64 {
        self.0.dot(rhs.0).clamp(-1.0, 1.0)
    }

    /// Angle in radians to another unit direction.
    #[inline]
    pub fn angle_to(self, rhs: UnitVec3) -> f64 {
        self.cos_angle_to(rhs).acos()
    }

    /// Dot with an arbitrary vector.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.0.dot(rhs)
    }

    /// Polar angle (radians from +z).
    #[inline]
    pub fn polar_angle(self) -> f64 {
        self.0.z.clamp(-1.0, 1.0).acos()
    }

    /// Azimuthal angle in radians in `(-pi, pi]`.
    #[inline]
    pub fn azimuth(self) -> f64 {
        self.0.y.atan2(self.0.x)
    }

    /// Flip direction.
    #[inline]
    pub fn flipped(self) -> UnitVec3 {
        UnitVec3(-self.0)
    }

    /// An arbitrary unit vector orthogonal to `self`, chosen stably by
    /// crossing with the axis least aligned with `self`.
    pub fn any_orthogonal(self) -> UnitVec3 {
        let v = self.0;
        let pick = if v.x.abs() <= v.y.abs() && v.x.abs() <= v.z.abs() {
            Vec3::X
        } else if v.y.abs() <= v.z.abs() {
            Vec3::Y
        } else {
            Vec3::Z
        };
        v.cross(pick).normalized()
    }

    /// An orthonormal basis `(u, v)` spanning the plane orthogonal to
    /// `self`, such that `(u, v, self)` is right-handed.
    pub fn orthonormal_basis(self) -> (UnitVec3, UnitVec3) {
        let u = self.any_orthogonal();
        let v = self.0.cross(u.0).normalized();
        (u, v)
    }

    /// Renormalize to squash accumulated rounding drift.
    #[inline]
    pub fn renormalized(self) -> UnitVec3 {
        self.0.normalized()
    }
}

impl From<UnitVec3> for Vec3 {
    #[inline]
    fn from(u: UnitVec3) -> Vec3 {
        u.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_and_cross_basics() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn norm_and_distance() {
        let v = Vec3::new(3.0, 4.0, 0.0);
        assert!((v.norm() - 5.0).abs() < EPS);
        assert!((v.distance(Vec3::ZERO) - 5.0).abs() < EPS);
        assert!((v.norm_sq() - 25.0).abs() < EPS);
    }

    #[test]
    fn normalize_zero_is_none() {
        assert!(Vec3::ZERO.try_normalize().is_none());
        assert!(Vec3::new(1e-310, 0.0, 0.0).try_normalize().is_none());
    }

    #[test]
    fn normalized_has_unit_norm() {
        let u = Vec3::new(1.0, -2.0, 3.0).normalized();
        assert!((u.as_vec().norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn spherical_round_trip() {
        let theta = 0.7;
        let phi = -1.3;
        let u = UnitVec3::from_spherical(theta, phi);
        assert!((u.polar_angle() - theta).abs() < 1e-12);
        assert!((u.azimuth() - phi).abs() < 1e-12);
    }

    #[test]
    fn spherical_poles() {
        let up = UnitVec3::from_spherical(0.0, 0.0);
        assert!((up.as_vec() - Vec3::Z).norm() < EPS);
        let down = UnitVec3::from_spherical(std::f64::consts::PI, 0.0);
        assert!((down.as_vec() + Vec3::Z).norm() < 1e-9);
    }

    #[test]
    fn orthonormal_basis_is_orthonormal_and_right_handed() {
        for dir in [
            UnitVec3::PLUS_Z,
            UnitVec3::from_spherical(1.1, 2.2),
            UnitVec3::from_spherical(3.0, -0.4),
            Vec3::new(1e-8, 1.0, -1e-8).normalized(),
        ] {
            let (u, v) = dir.orthonormal_basis();
            assert!(u.dot(dir.as_vec()).abs() < 1e-10);
            assert!(v.dot(dir.as_vec()).abs() < 1e-10);
            assert!(u.dot(v.as_vec()).abs() < 1e-10);
            // right-handed: u x v = dir
            let w = u.as_vec().cross(v.as_vec());
            assert!((w - dir.as_vec()).norm() < 1e-9);
        }
    }

    #[test]
    fn cos_angle_clamped() {
        let a = Vec3::new(1.0, 0.0, 0.0).normalized();
        // identical vectors: numerically could exceed 1 without clamping
        assert!(a.cos_angle_to(a) <= 1.0);
        assert_eq!(a.angle_to(a), 0.0);
        assert!((a.angle_to(a.flipped()) - std::f64::consts::PI).abs() < EPS);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn array_round_trip() {
        let v = Vec3::new(1.5, -2.5, 3.5);
        assert_eq!(Vec3::from_array(v.to_array()), v);
    }
}
