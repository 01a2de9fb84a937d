"""Every recorded answer of the ``invariants`` benchmark, regenerated.

A deck draws its pooled instances by the workload seed, so an op that is
wrong on only a few pool members fails only some benchmark runs.  Here each
``count/``, ``ordaz/`` and ``robust/`` record in ``perfbench/expected.json``
is rebuilt: its input must match the recorded fingerprint, and the output
must pass the benchmark's own op check.
"""

import importlib.util
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up
_spec.loader.exec_module(workloads)

OPS = {"count": workloads._count_op, "ordaz": workloads._ordaz_op,
       "robust": workloads._robust_op}
GROUPS = [(task, family, args, range(workloads.POOL))
          for task in OPS for family, args in workloads.POOLED[task]]
GROUPS += [(task, family, args, [None])
           for task in OPS for family, args in workloads.RECORDED_FIXED.get(task, ())]
EXPECTED = workloads.load_expected()


def test_groups_cover_every_record():
    keys = {workloads.record_key(task, family, args, seed)
            for task, family, args, seeds in GROUPS for seed in seeds}
    assert keys == {key for key in EXPECTED if key.split("/")[0] in OPS}
    assert len(keys) == 324


@pytest.mark.parametrize("task,family,args,seeds", GROUPS,
                         ids=[f"{t}/{workloads.label(f, a)}" for t, f, a, _ in GROUPS])
def test_recorded_answers(task, family, args, seeds):
    inputs = workloads._Inputs(lambda name: nullcontext(), EXPECTED)
    for seed in seeds:
        g, rec = inputs.recorded(task, family, args, seed)
        op = OPS[task](task, g, rec)
        assert op.check(op.run()) is None, workloads.record_key(task, family, args, seed)
