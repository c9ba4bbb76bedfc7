"""Campaign result-file encoder: template emitter vs. json's indent path.

``ModuleCharacterization.to_json`` writes every campaign result file.  It
used to be ``json.dumps(payload, indent=1)`` over ``asdict`` of every row;
``asdict`` deep-copies each row and ``indent`` keeps json off its C
encoder.  It now emits the same text from a fixed per-row template.  This
bench encodes the default campaign's 30 modules both ways and asserts:

* **byte identity** — ``to_json`` returns exactly the old encoder's text
  for every module (the old encoder lives on here as the oracle);
* **speed** — ``to_json`` is at least 3x faster over the whole campaign.

Each side is timed as the best of a few repetitions, alternating sides.
The persisted ``BENCH_result_codec.json`` carries the ``floors`` that
``scripts/check_bench_floors.py`` re-checks in CI.
"""

import json
import time
from dataclasses import asdict
from pathlib import Path
from tempfile import TemporaryDirectory

from bench_util import RESULTS_DIR, run_once, save_result

from repro.characterization.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
)

#: Minimum ``to_json`` speedup over the old encoder, whole campaign.
SPEEDUP_FLOOR = 3.0

_REPS = 5


def reference_json(result) -> str:
    """The encoder ``to_json`` replaced."""
    return json.dumps({"module_id": result.module_id, "seed": result.seed,
                       "model_digest": result.model_digest,
                       "measurements": [asdict(m)
                                        for m in result.measurements]},
                      indent=1)


def _timed(encode, modules) -> tuple[float, list[str]]:
    started = time.perf_counter()
    texts = [encode(m) for m in modules]
    return time.perf_counter() - started, texts


def _run_bench() -> dict:
    with TemporaryDirectory() as tmp:
        results = CharacterizationCampaign(Path(tmp), CampaignConfig()
                                           ).run(jobs=1)
    modules = [results[module_id] for module_id in sorted(results)]
    reference_s = to_json_s = float("inf")
    identical = True
    for _ in range(_REPS):
        seconds, expected = _timed(reference_json, modules)
        reference_s = min(reference_s, seconds)
        seconds, texts = _timed(lambda m: m.to_json(), modules)
        to_json_s = min(to_json_s, seconds)
        identical = identical and texts == expected
    return {"modules": len(modules),
            "rows": sum(len(m.measurements) for m in modules),
            "bytes": sum(len(text) for text in expected),
            "identical": identical,
            "reference_s": reference_s, "to_json_s": to_json_s,
            "to_json_speedup": reference_s / to_json_s}


def bench_result_codec(benchmark):
    payload = run_once(benchmark, _run_bench)
    payload["floors"] = {"to_json_speedup": SPEEDUP_FLOOR}
    assert payload["identical"], "to_json differs from the reference encoder"
    # The in-process assert mirrors scripts/check_bench_floors.py, which
    # re-checks the persisted payload in CI.
    assert payload["to_json_speedup"] >= SPEEDUP_FLOOR, \
        f"to_json speedup {payload['to_json_speedup']:.2f} below floor " \
        f"{SPEEDUP_FLOOR}"

    lines = [f"campaign: {payload['modules']} modules, {payload['rows']} "
             f"rows, {payload['bytes']} bytes of result files",
             f"reference json.dumps(asdict, indent=1): "
             f"{payload['reference_s'] * 1e3:.1f} ms",
             f"to_json template emitter: {payload['to_json_s'] * 1e3:.1f} ms",
             f"speedup: {payload['to_json_speedup']:.2f}x "
             f"(floor {SPEEDUP_FLOOR:.1f}x)",
             "output byte-identical to the reference encoder"]
    save_result("result_codec", "\n".join(lines))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_result_codec.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
