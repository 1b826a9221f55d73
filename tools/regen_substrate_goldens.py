"""Regenerate the NumPy substrate goldens of ``tests/test_model_substrate_backends.py``.

The test pins, per model family, the eval loss, three protected training-step
losses and the final weight sum of the pure-NumPy substrate with exact ``==``.
A change to the substrate's arithmetic that moves the last ulp (a different
GEMM or reduction order) moves these values.  This script re-runs the test's
own ``run_protected_training`` and eval pass, prints every old and new value
with its relative difference, and rewrites the ``NUMPY_GOLDENS`` literal.

    python tools/regen_substrate_goldens.py            # rewrite the literal
    python tools/regen_substrate_goldens.py --check    # only report; exit 1 if any value moved

It refuses to write when a value moved by more than ``MAX_REL`` (1e-14
relative): a difference that large is not rounding and needs explaining, not
regenerating.  Record every moved value in CHANGES.md.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_FILE = ROOT / "tests" / "test_model_substrate_backends.py"
#: Largest relative move the script will write; anything larger is refused.
MAX_REL = 1e-14
GOLDENS_RE = re.compile(r"^NUMPY_GOLDENS = \{\n.*?^\}\n", re.MULTILINE | re.DOTALL)


def _load_test_module():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    import test_model_substrate_backends as module
    from repro.models import build_model

    return np, module, build_model


def measure(np, module, build_model, model_name):
    """The golden fields of one model family, computed as the test does."""
    model = build_model(model_name, size="tiny", rng=np.random.default_rng(7))
    batch = module._batch_for(model)
    model.eval()
    out = model(batch["input_ids"], attention_mask=batch["attention_mask"],
                labels=batch["labels"])
    result = module.run_protected_training(model_name)
    return {
        "eval_loss": out.loss_value,
        "train_losses": list(result["losses"]),
        "weight_sum": result["weight_sum"],
    }


def _flat(golden):
    yield "eval_loss", golden["eval_loss"]
    for i, loss in enumerate(golden["train_losses"]):
        yield f"train_losses[{i}]", loss
    yield "weight_sum", golden["weight_sum"]


def _rel(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def render(goldens):
    lines = ["NUMPY_GOLDENS = {"]
    for name, golden in goldens.items():
        losses = ", ".join(repr(v) for v in golden["train_losses"])
        lines += [
            f'    "{name}": {{',
            f'        "eval_loss": {golden["eval_loss"]!r},',
            f'        "train_losses": [{losses}],',
            f'        "weight_sum": {golden["weight_sum"]!r},',
            "    },",
        ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report only; exit 1 if any value moved")
    args = parser.parse_args(argv)

    np, module, build_model = _load_test_module()
    old = module.NUMPY_GOLDENS
    new = {name: measure(np, module, build_model, name) for name in old}

    worst = 0.0
    moved = 0
    for name in old:
        for (field, before), (_, after) in zip(_flat(old[name]), _flat(new[name])):
            rel = _rel(before, after)
            if not math.isfinite(rel):
                rel = math.inf
            worst = max(worst, rel)
            mark = "moved" if before != after else "same "
            moved += before != after
            print(f"{mark} {name:10s} {field:16s} {before!r:>22} -> {after!r:<22} rel {rel:.3g}")
    print(f"{moved} value(s) moved; max relative difference {worst:.3g}")

    if args.check:
        return 1 if moved else 0
    if worst > MAX_REL:
        print(f"not written: {worst:.3g} exceeds MAX_REL {MAX_REL:g}")
        return 2
    if moved:
        text = TEST_FILE.read_text()
        if len(GOLDENS_RE.findall(text)) != 1:
            print(f"not written: no single NUMPY_GOLDENS literal in {TEST_FILE}")
            return 2
        TEST_FILE.write_text(GOLDENS_RE.sub(lambda _: render(new), text))
        print(f"rewrote NUMPY_GOLDENS in {TEST_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
