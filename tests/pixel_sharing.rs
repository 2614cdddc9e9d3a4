//! One pixel buffer per sample. An `Image` clone shares its pixels,
//! copy-on-write, so client partitions, drawn batches and defense
//! passes read the source dataset's own buffers (checked by buffer
//! address), and a write through any clone copies first and leaves
//! the dataset and every other clone bit-identical.

use std::sync::Arc;

use oasis_data::{cifar_like_with, Dataset};
use oasis_fl::DefenseStack;
use oasis_image::Image;
use oasis_population::Population;
use rand::{rngs::StdRng, SeedableRng};

fn data() -> Dataset {
    cifar_like_with(4, 6, 8, 3)
}

/// The pixel-buffer addresses of `images`, sorted.
fn buffers<'a>(images: impl IntoIterator<Item = &'a Image>) -> Vec<*const f32> {
    let mut ptrs: Vec<_> = images.into_iter().map(|img| img.data().as_ptr()).collect();
    ptrs.sort();
    ptrs
}

/// Asserts that every image of `images` reads one of the `source`
/// buffers (sorted, as [`buffers`] returns them).
fn assert_reads<'a>(
    source: &[*const f32],
    images: impl IntoIterator<Item = &'a Image>,
    what: &str,
) {
    for ptr in buffers(images) {
        assert!(source.binary_search(&ptr).is_ok(), "{what} copied a sample");
    }
}

fn bits(img: &Image) -> Vec<u32> {
    img.data().iter().map(|v| v.to_bits()).collect()
}

fn client_images(pop: &Population) -> impl Iterator<Item = &Image> {
    pop.clients()
        .iter()
        .flat_map(|c| c.data().items())
        .map(|it| &it.image)
}

#[test]
fn every_partition_reads_the_source_pixels() {
    let data = data();
    let source = buffers(data.items().iter().map(|it| &it.image));
    let mut distinct = source.clone();
    distinct.dedup();
    assert_eq!(distinct.len(), data.len(), "each sample owns one buffer");

    let defense = Arc::new(DefenseStack::identity());
    let iid = Population::iid(&data, 5, defense.clone(), &mut StdRng::seed_from_u64(1));
    let dirichlet = Population::dirichlet(
        &data,
        5,
        0.3,
        defense.clone(),
        &mut StdRng::seed_from_u64(2),
    );
    // Both partitions place every sample exactly once.
    assert_eq!(buffers(client_images(&iid)), source, "iid");
    assert_eq!(buffers(client_images(&dirichlet)), source, "dirichlet");

    // More clients than samples wraps round-robin, and a subset keeps
    // its clients' windows: still only source buffers.
    let wrapped = Population::iid(&data, 40, defense, &mut StdRng::seed_from_u64(3));
    for pop in [
        &wrapped,
        &iid.subset(&[4, 0, 2]),
        &dirichlet.subset(&[1, 3]),
    ] {
        assert_reads(&source, client_images(pop), "a client");
    }
}

#[test]
fn batches_and_identity_defense_read_the_source_pixels() {
    let data = data();
    let source = buffers(data.items().iter().map(|it| &it.image));
    let mut rng = StdRng::seed_from_u64(4);
    let batch = data.sample_batch(8, &mut rng);
    let (train, test) = data.split(0.75, &mut rng);
    let drawn = batch
        .images
        .iter()
        .chain(train.items().iter().map(|it| &it.image))
        .chain(test.items().iter().map(|it| &it.image));
    assert_reads(&source, drawn, "a batch or split");

    let processed = DefenseStack::identity().process_batch(&batch, &mut rng);
    assert_eq!(processed, batch);
    for (out, img) in processed.images.iter().zip(&batch.images) {
        assert_eq!(out.data().as_ptr(), img.data().as_ptr());
    }
}

#[test]
fn writing_a_clone_leaves_the_original_and_other_clones_alone() {
    let data = data();
    let original = &data.items()[0].image;
    let want = bits(original);
    type Write = fn(&mut Image);
    let writes: [(&str, Write); 4] = [
        ("add_noise", |img| {
            img.add_noise(0.2, &mut StdRng::seed_from_u64(5))
        }),
        ("set", |img| img.set(1, 2, 3, -1.0).unwrap()),
        ("fill", |img| img.fill(-1.0)),
        ("data_mut", |img| img.data_mut()[7] = -1.0),
    ];
    for (name, write) in writes {
        let witness = original.clone();
        let mut written = original.clone();
        assert_eq!(written.data().as_ptr(), original.data().as_ptr());
        write(&mut written);
        assert_ne!(bits(&written), want, "{name} changed nothing");
        assert_ne!(written.data().as_ptr(), original.data().as_ptr(), "{name}");
        assert_eq!(bits(original), want, "{name} reached the original");
        assert_eq!(bits(&witness), want, "{name} reached another clone");
        assert_eq!(witness.data().as_ptr(), original.data().as_ptr());
    }

    // Noising a drawn batch in place leaves the dataset as it was.
    let before: Vec<_> = data.items().iter().map(|it| bits(&it.image)).collect();
    let mut batch = data.sample_batch(8, &mut StdRng::seed_from_u64(6));
    for img in &mut batch.images {
        img.add_noise(0.2, &mut StdRng::seed_from_u64(7));
    }
    let after: Vec<_> = data.items().iter().map(|it| bits(&it.image)).collect();
    assert_eq!(after, before);
}
