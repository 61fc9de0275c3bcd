//! `BoxGrid` against the linear reference scan on the paper's 9×9 array.
//!
//! Seeded property test: every ray must produce the same crossings from
//! [`BoxGrid::trace`] as from [`trace_boxes`] — same box indices, same
//! order, and bitwise-equal `t_enter`/`t_exit`. Rays follow the strike
//! simulator's two forced-hit direction laws (launched on the array's top
//! face) and the neutron simulator's secondaries (launched anywhere in the
//! inflated interaction volume or inside a fin, in any direction,
//! upward included).

use finrad::core::array::{DataPattern, MemoryArray};
use finrad::finfet::Technology;
use finrad::geometry::trace::{trace_boxes, BoxGrid, Crossing};
use finrad::geometry::{sampling, Aabb, Ray, Vec3};
use finrad::numerics::rng::{Rng, Xoshiro256pp};

fn array_boxes() -> (Vec<Aabb>, Aabb) {
    let array = MemoryArray::build(
        &Technology::soi_finfet_14nm(),
        9,
        9,
        DataPattern::Checkerboard,
    );
    (array.fin_boxes(), array.bounds())
}

/// Traces `ray` both ways and asserts bit-identity; returns the count.
fn assert_same(grid: &BoxGrid, boxes: &[Aabb], ray: &Ray) -> usize {
    let key = |c: &Crossing| (c.index, c.hit.t_enter.to_bits(), c.hit.t_exit.to_bits());
    let want: Vec<_> = trace_boxes(ray, boxes).iter().map(key).collect();
    let got: Vec<_> = grid.trace(ray).iter().map(key).collect();
    assert_eq!(got, want, "ray {ray:?}");
    want.len()
}

#[test]
fn grid_matches_linear_scan_for_both_direction_laws() {
    let (boxes, bounds) = array_boxes();
    let grid = BoxGrid::new(&boxes);
    assert_eq!(grid.len(), 486);
    let mut rng = Xoshiro256pp::seed_from_u64(0x9C9A);
    let (mut rays, mut crossings) = (0u64, 0usize);
    for law in 0..2 {
        for _ in 0..500_000 {
            let launch = sampling::point_on_top_face(&mut rng, &bounds);
            let dir = if law == 0 {
                sampling::cosine_law_hemisphere(&mut rng)
            } else {
                let d = sampling::isotropic_direction(&mut rng);
                Vec3::new(d.x, d.y, -d.z.abs().max(1.0e-6))
            };
            crossings += assert_same(&grid, &boxes, &Ray::new(launch, dir));
            rays += 1;
        }
    }
    assert_eq!(rays, 1_000_000);
    assert!(crossings > 100_000, "rays must hit fins: {crossings}");
}

#[test]
fn grid_matches_linear_scan_for_neutron_secondaries() {
    let (boxes, bounds) = array_boxes();
    let grid = BoxGrid::new(&boxes);
    // The neutron simulator's default volume: 2 µm lateral margin and
    // 1 µm overburden around the array.
    let volume = Aabb::new(
        bounds.min_corner() - Vec3::new(2.0e-6, 2.0e-6, 0.0),
        bounds.max_corner() + Vec3::new(2.0e-6, 2.0e-6, 1.0e-6),
    );
    let mut rng = Xoshiro256pp::seed_from_u64(0x4E07);
    let mut crossings = 0;
    for i in 0..200_000u64 {
        let origin = if i % 2 == 0 {
            sampling::point_in_box(&mut rng, &volume)
        } else {
            let k = (rng.next_u64() % boxes.len() as u64) as usize;
            sampling::point_in_box(&mut rng, &boxes[k])
        };
        let dir = sampling::isotropic_direction(&mut rng);
        crossings += assert_same(&grid, &boxes, &Ray::new(origin, dir));
    }
    assert!(crossings > 100_000, "{crossings}");
}

#[test]
fn grid_matches_linear_scan_for_axis_parallel_rays_on_fin_faces() {
    let (boxes, bounds) = array_boxes();
    let grid = BoxGrid::new(&boxes);
    let top = bounds.max_corner().z;
    let mut crossings = 0;
    for b in &boxes {
        let (lo, hi) = (b.min_corner(), b.max_corner());
        let c = b.center();
        // Down the fin's faces, edges and centre, and sideways along its
        // faces at mid height and at the top and bottom planes.
        for (x, y) in [
            (lo.x, lo.y),
            (hi.x, hi.y),
            (lo.x, c.y),
            (c.x, hi.y),
            (c.x, c.y),
        ] {
            crossings += assert_same(
                &grid,
                &boxes,
                &Ray::new(Vec3::new(x, y, top + 1e-7), Vec3::new(0.0, 0.0, -1.0)),
            );
        }
        for z in [lo.z, c.z, hi.z] {
            for (o, d) in [
                (
                    Vec3::new(bounds.min_corner().x - 1e-7, lo.y, z),
                    Vec3::new(1.0, 0.0, 0.0),
                ),
                (
                    Vec3::new(bounds.max_corner().x + 1e-7, hi.y, z),
                    Vec3::new(-1.0, 0.0, 0.0),
                ),
                (
                    Vec3::new(lo.x, bounds.min_corner().y - 1e-7, z),
                    Vec3::new(0.0, 1.0, 0.0),
                ),
                (
                    Vec3::new(hi.x, bounds.max_corner().y + 1e-7, z),
                    Vec3::new(0.0, -1.0, 0.0),
                ),
            ] {
                crossings += assert_same(&grid, &boxes, &Ray::new(o, d));
            }
        }
    }
    assert!(crossings > 1_000, "{crossings}");
}
