"""`scripts/output_digest.py` on one seed at a tiny scale: its six digests
are pinned, so a change meant to keep every output bit is checked here.

The digests depend on the BLAS and its thread count, so the script runs in a
subprocess with one BLAS thread, as it sets for itself.  A change meant to
move these bits updates the values and says so with its LAMR and recall
delta.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A train_cascade small enough to run in a few seconds that still fits all 8
# of its trees (the script prints their count and the early-stop flag).
RUN = """
import sys
sys.path.insert(0, {scripts!r})
import output_digest, workloads
from pedcascade import cascade
from pedcascade.data import WindowGeometry
from pedcascade.forest import SlidingWindowConfig

geom = WindowGeometry(window=(32, 16), pedestrian_extent=(24, 12))
sliding = dict(stride=4, scale_step=2 ** 0.5, min_height=20)
scale = workloads.Scale(
    image_hw=(72, 96), height_range=(24.0, 40.0), train_frames=40, test_frames=8,
    n_trees=8, net_epochs=2, net_extra_epochs=1, net_filters=(4, 4, 8), net_fc_units=8,
    geometry=geom, net_geometry=geom, detect_sliding=SlidingWindowConfig(**sliding),
    dense_sliding=SlidingWindowConfig(score_threshold=-1e9, **sliding))
fits = []
train_cascade = cascade.train_cascade
def recorded(*args):
    fits.append(train_cascade(*args))
    return fits[-1]
cascade.train_cascade = recorded
for name, digest in output_digest.digests(1, scale):
    print(name, digest)
model = fits[0].proposal_model
print("trees", len(model.trees), model.early_stop)
"""

PINNED = """\
model eca7dc4410dfce9ea4afc09201a81c53382e1e671d8ce04b4bc0dc4b303e9b7d
detect aa2bf5b1b69588b5f9308b00b01fe23171d5aee0a893d74887600b6f6bdc8aee
detect.filtered d90d66f7010bc818adeaf315b6e2120998efedcce7fa1d04cc0ef62196fd6b5f
detect.dense 7d686ed5f6362fd3d1280d8620634b9ff885368beaf8fc0667bae4d77833f909
run_cascade 8ed3b54097ce3dbc7298cbdf15abea741a0bd0974f131b0b33d9f15cd7187ed0
verify 5cce26d0415581d08acbb44844ef81d4d88fae7f78962b3207e375e2b570fce9
trees 8 False
"""


def test_digests_are_pinned_at_a_tiny_scale():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-B", "-c", RUN.format(scripts=str(ROOT / "scripts"))],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == PINNED
