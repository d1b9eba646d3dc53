"""perfgate: the speed gate on perfbench's traced records (see ``gate``).

Run from the root of a checkout, after one traced perfbench run of each
workload::

    for w in s1-central s3-distributed s1-faults-ckpt; do
        python3 perfbench/run.py --workload $w --seed 0 --trace 1 --out $w.json
    done
    python -m tools.perfgate s1-central.json s3-distributed.json s1-faults-ckpt.json

Several records of one workload are combined by their median.
``--write-baseline`` rewrites ``tools/perfgate/baseline.json`` from the
records instead of gating them. Exit status: 0 when every gated
quantity is within the bound, 1 when one is not, 2 on bad input.
"""
