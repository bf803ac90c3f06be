import threading

from crossmpt import parallel
from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.codes import get_code
from crossmpt.models import DecoderModel, ModelConfig, Variant


def test_replaced_helper_pool_threads_end(monkeypatch):
    # a small chunk, then a large one, on a 4-core host: the second needs
    # more lanes, and no helper thread may live outside the current lanes
    monkeypatch.setattr(parallel, "_cores", lambda: 4)
    monkeypatch.setattr(parallel, "_helpers", None)
    code = get_code("bch_15_7")
    model = DecoderModel(ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8), code,
                         seed=1, infer_only=True)
    before = set(threading.enumerate())
    pools = []
    for frames in (2, 16):
        model.decode_batch(sample_batch(code, NoiseSpec.for_code(code, 4.0, seed=frames), frames))
        pools.append(parallel._helpers[1])
    assert pools[0] is not pools[1]
    alive = set(threading.enumerate()) - before
    assert alive and alive <= {t for lane in pools[1] for t in lane._threads}
    for lane in pools[1]:
        lane.shutdown()
