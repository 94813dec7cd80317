//! The packed [`Perm`] against a `Vec<u32>` reference model.
//!
//! `Perm` keeps its one-line image in 4-bit fields of one word, so every operation is
//! bit arithmetic that a plain image vector does with indexing.  These tests hold the
//! two to the same answers: exhaustively over every permutation of `0..n` for `n ≤ 5`
//! (including comparisons across domain sizes), and over seeded random permutations of
//! the widest domain, [`Perm::MAX_LEN`] ids.

use proptest::prelude::*;
use remix_spec::Perm;

/// The reference model: the image vector itself.
type Image = Vec<u32>;

/// The representation `Perm` had before it was packed; its derived `Debug` is the
/// output the packed one keeps.
mod vec_backed {
    #[derive(Debug)]
    #[allow(dead_code)] // the image is only read through the derived `Debug`
    pub struct Perm(pub super::Image);
}

fn compose(a: &Image, b: &Image) -> Image {
    b.iter().map(|&v| a[v as usize]).collect()
}

fn inverse(a: &Image) -> Image {
    let mut inv = vec![0; a.len()];
    for (i, &v) in a.iter().enumerate() {
        inv[v as usize] = i as u32;
    }
    inv
}

/// Every permutation of `0..n`, in lexicographic order.
fn all_images(n: u32) -> Vec<Image> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..n {
        for rest in all_images(n - 1) {
            let mut image = vec![first];
            image.extend(rest.into_iter().map(|v| v + u32::from(v >= first)));
            out.push(image);
        }
    }
    out
}

/// A uniformly shuffled image of `0..n`, from a SplitMix64 stream seeded by `seed`.
fn shuffled(n: usize, mut seed: u64) -> Image {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut image: Image = (0..n as u32).collect();
    for i in (1..n).rev() {
        image.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    image
}

/// Everything a single permutation answers, against the model.
fn assert_matches(image: &Image) {
    let p = Perm::from_image(image.clone());
    assert_eq!(p.len(), image.len());
    assert_eq!(p.is_empty(), image.is_empty());
    for (i, &v) in image.iter().enumerate() {
        assert_eq!(p.apply(i), v as usize, "{image:?} at {i}");
    }
    assert_eq!(p.image().collect::<Image>(), *image);
    let identity = image.iter().enumerate().all(|(i, &v)| i as u32 == v);
    assert_eq!(p.is_identity(), identity, "{image:?}");
    assert_eq!(p.inverse(), Perm::from_image(inverse(image)), "{image:?}");
    let listed: Vec<String> = image.iter().map(u32::to_string).collect();
    assert_eq!(p.to_string(), format!("[{}]", listed.join(", ")));
    let old = vec_backed::Perm(image.clone());
    assert_eq!(format!("{p:?}"), format!("{old:?}"));
    assert_eq!(format!("{p:#?}"), format!("{old:#?}"));
}

/// Everything a pair of permutations answers, against the model.
fn assert_pair_matches(a: &Image, b: &Image) {
    let (pa, pb) = (Perm::from_image(a.clone()), Perm::from_image(b.clone()));
    assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
    assert_eq!(pa == pb, a == b, "{a:?} vs {b:?}");
    if a.len() == b.len() {
        assert_eq!(
            pa.compose(&pb),
            Perm::from_image(compose(a, b)),
            "{a:?} ∘ {b:?}"
        );
    }
}

#[test]
fn every_small_permutation_matches_the_image_vector() {
    let images: Vec<Image> = (0..=5).flat_map(all_images).collect();
    assert_eq!(images.len(), 1 + 1 + 2 + 6 + 24 + 120);
    for a in &images {
        assert_matches(a);
        for b in &images {
            assert_pair_matches(a, b);
        }
    }
    for n in 0..=5 {
        assert!(Perm::identity(n).is_identity());
        assert_eq!(
            Perm::identity(n),
            Perm::from_image(all_images(n as u32)[0].clone())
        );
    }
}

proptest! {
    /// Random permutations of the widest domain, where every nibble of the packed word
    /// is in play.
    #[test]
    fn random_permutations_of_sixteen_ids_match_the_image_vector(
        seed_a in 0u64..u64::MAX,
        seed_b in 0u64..u64::MAX,
    ) {
        let (a, b) = (shuffled(Perm::MAX_LEN, seed_a), shuffled(Perm::MAX_LEN, seed_b));
        assert_matches(&a);
        assert_pair_matches(&a, &b);
        assert_pair_matches(&b, &a);
        let pa = Perm::from_image(a.clone());
        prop_assert!(pa.compose(&pa.inverse()).is_identity());
        prop_assert!(pa.inverse().compose(&pa).is_identity());
        // Across domain sizes, also where the shorter image is a prefix of the longer.
        let short = shuffled(8, seed_b);
        let mut long = short.clone();
        long.extend(shuffled(8, seed_a).into_iter().map(|v| v + 8));
        for (x, y) in [(&short, &a), (&short, &long)] {
            assert_pair_matches(x, y);
            assert_pair_matches(y, x);
        }
    }
}

#[test]
fn a_perm_is_at_most_sixteen_inline_bytes() {
    assert!(std::mem::size_of::<Perm>() <= 16);
    assert_eq!(Perm::MAX_LEN, 16);
}

#[test]
#[should_panic(expected = "Perm::MAX_LEN")]
fn seventeen_ids_are_refused_by_from_image() {
    let _ = Perm::from_image((0..17).collect::<Vec<u32>>());
}

#[test]
#[should_panic(expected = "Perm::MAX_LEN")]
fn seventeen_ids_are_refused_by_identity() {
    let _ = Perm::identity(17);
}
