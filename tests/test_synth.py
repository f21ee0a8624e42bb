import pytest

from pedcascade.synth import MIN_IMAGE_SIDE, SynthSpec, synth_dataset


class TestSpec:
    def test_rejects_negative_frames(self):
        with pytest.raises(ValueError):
            SynthSpec(n_frames=-1)

    def test_rejects_bad_height_range(self):
        with pytest.raises(ValueError):
            SynthSpec(height_range=(100.0, 50.0))

    @pytest.mark.parametrize("hw", [(MIN_IMAGE_SIDE - 1, 320), (240, MIN_IMAGE_SIDE - 1),
                                    (40, 60)])
    def test_rejects_frames_below_the_minimum_side(self, hw):
        with pytest.raises(ValueError, match=f"below the minimum side {MIN_IMAGE_SIDE}"):
            SynthSpec(image_hw=hw)

    @pytest.mark.parametrize("hw", [(MIN_IMAGE_SIDE, MIN_IMAGE_SIDE), (MIN_IMAGE_SIDE, 400),
                                    (400, MIN_IMAGE_SIDE)])
    def test_frames_at_the_minimum_side_render(self, hw):
        # heavy clutter draws every distractor kind many times over
        images, _ = synth_dataset(SynthSpec(n_frames=20, image_hw=hw, clutter=8.0), seed=1)
        assert all(img.data.shape == hw + (3,) for img in images)

    def test_fixed_ped_count(self):
        _, frames = synth_dataset(SynthSpec(n_frames=4, peds_per_frame=(3, 3)), seed=0)
        assert [len(f.gt_boxes) for f in frames] == [3] * 4


class TestDataset:
    def test_deterministic_bytes(self):
        spec = SynthSpec(n_frames=4, clutter=2.0)
        imgs_a, frames_a = synth_dataset(spec, seed=5)
        imgs_b, frames_b = synth_dataset(spec, seed=5)
        for a, b in zip(imgs_a, imgs_b):
            assert a.data.tobytes() == b.data.tobytes()
        assert frames_a == frames_b

    def test_seed_changes_content(self):
        spec = SynthSpec(n_frames=2)
        (a, *_), _ = synth_dataset(spec, seed=0)
        (b, *_), _ = synth_dataset(spec, seed=1)
        assert a.data.tobytes() != b.data.tobytes()

    def test_boxes_inside_image_with_aspect(self):
        spec = SynthSpec(n_frames=6, peds_per_frame=(1, 3), clutter=1.0)
        imgs, frames = synth_dataset(spec, seed=2)
        assert len(imgs) == len(frames) == 6
        for img, f in zip(imgs, frames):
            for b in f.gt_boxes:
                assert b.x >= 0 and b.y >= 0
                assert b.x + b.w <= img.width
                assert b.y + b.h <= img.height
                assert b.w == pytest.approx(b.h / 2)
                assert spec.height_range[0] <= b.h <= spec.height_range[1]

    def test_meta_heights_match_boxes(self):
        _, frames = synth_dataset(SynthSpec(n_frames=3), seed=3)
        for f in frames:
            assert [m.height for m in f.gt_meta] == [b.h for b in f.gt_boxes]

    def test_pixels_in_unit_range(self):
        imgs, _ = synth_dataset(SynthSpec(n_frames=2, clutter=4.0, noise=0.05), seed=4)
        for img in imgs:
            assert img.data.min() >= 0.0 and img.data.max() <= 1.0
            assert img.data.shape == (240, 320, 3)

    def test_frame_ids_unique_and_sorted(self):
        _, frames = synth_dataset(SynthSpec(n_frames=12), seed=0)
        ids = [f.frame_id for f in frames]
        assert len(set(ids)) == 12
        assert ids == sorted(ids)

    def test_pedestrians_overlap_limited(self):
        from pedcascade.geometry import iou

        _, frames = synth_dataset(SynthSpec(n_frames=8, peds_per_frame=(2, 3)), seed=6)
        for f in frames:
            boxes = f.gt_boxes
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert iou(boxes[i], boxes[j]) < 0.1

    def test_zero_frames(self):
        imgs, frames = synth_dataset(SynthSpec(n_frames=0), seed=0)
        assert imgs == [] and frames == []
