#!/usr/bin/env bash
# Write the standard output set of one lugsi checkout, for a byte-identity check.
#
#   tools/standard_outputs.sh SRC_DIR OUT_DIR
#
# SRC_DIR is a checkout: its src/ is run and its data/wine.csv is read.
# OUT_DIR is created if needed. Every command runs inside OUT_DIR with
# relative paths, so the provenance headers do not depend on where the
# checkout lives, and `wall_seconds` is dropped from train's stdout. Two
# checkouts agree byte for byte when `diff -r OUT_A OUT_B` prints nothing;
# `tools/compare_outputs.py OUT_A OUT_B` tells respelled numbers from
# changed values.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
cp "$src/data/wine.csv" wine.csv
cat wine.csv wine.csv > wine_twice.csv

lugsi() {
    PYTHONPATH="$src/src" python3 -m lugsi.cli "$@"
}

lugsi cv --data wine.csv --kernel linear --seed 1 --timing zero --c-grid 0.5,4,64 \
    --report-out cv_linear.json --csv-out cv_linear.csv > cv_linear.stdout
lugsi cv --data wine.csv --kernel rbf --seed 1 --timing zero --c-grid 0.5,4,64 \
    --delta-grid 0.5,2 --report-out cv_rbf.json --csv-out cv_rbf.csv > cv_rbf.stdout

# 2500 synthetic rows from the checkout's generator, so granules cross the
# 1024-row Gram blocks of a kernel fit and of kernel scoring
PYTHONPATH="$src/src" python3 -c '
from lugsi.dataset import generate_ndc
from lugsi.serialize import csv_line
data = generate_ndc(2500, 8, 10, 1)
with open("ndc.csv", "w") as out:
    for row, label in zip(data.features.tolist(), data.labels.tolist()):
        print(csv_line(*row, label), file=out)
'

# an rbf grid on 2000-row training folds: the m = 7 units seed their
# restarts as one stack, from a (stack, l, n) distance step per pick (an
# l x l table would not fit), and the m = 125 units seed each restart
# alone with the pruned update; each (fold, m, delta) system, whose Gram
# blocks cross the 1024-row boundary, is solved at both C values
lugsi cv --data ndc.csv --kernel rbf --seed 1 --timing zero --c-grid 1,4 --delta-grid 0.5,2 \
    --m-grid 7,125 --restarts 2 --report-out cv_rbf_ndc.json --csv-out cv_rbf_ndc.csv \
    > cv_rbf_ndc.stdout

train() {
    local name=$1 data=$2
    shift 2
    lugsi train --data "$data" --seed 1 "$@" --model-out "train_$name.json" \
        | grep -v '^wall_seconds ' > "train_$name.stdout"
    lugsi predict --data "$data" --model "train_$name.json" --out "predict_$name.csv"
}
train linear wine.csv --clusters 7
train rbf wine.csv --clusters 7 --kernel rbf --delta 0.5
train cro wine.csv --clusters 7 --kernel cro --cro-gamma 0.3
train empirical wine.csv --clusters 178 --measure empirical
# the empirical measure on 2500 x 8 rows: its dominance counts run in
# blocks of a few reference rows each
train empirical_ndc ndc.csv --clusters 50 --measure empirical
train rbf_ndc ndc.csv --clusters 7 --kernel rbf
# a 200 x 200 system: the solve substitutes over several 64-row blocks
train rbf_ndc_200 ndc.csv --clusters 200 --kernel rbf
# a byte-gated linear fit over 300 uneven granules of 2500 rows
train linear_ndc_300 ndc.csv --clusters 300 --restarts 2
# 1250 granules of 2500 rows, mostly of one or two rows, across the
# 1024-row Gram blocks: the singleton step and the multi-row segments
train rbf_ndc_1250 ndc.csv --clusters 1250 --kernel rbf --restarts 2

lugsi granulate --data wine.csv --clusters 5 --out granulate.csv
lugsi granulate --data wine.csv --clusters 5 --emit-v --out granulate_v.csv
# 89 granules of 178 rows: restarts 1-4, 5-8 and 9-10 run as stacks,
# seeded from the l x l distance table
lugsi granulate --data wine.csv --clusters 89 --out granulate_89.csv
# 300 granules of 2500 rows: every assignment pass runs over several row
# blocks of the distances, the last one short
lugsi granulate --data ndc.csv --clusters 300 --seed 1 --restarts 2 --out granulate_ndc.csv

lugsi bench sizes --sizes 300,600 --timing zero --out bench_sizes.csv
# a granule-count sweep at one C
lugsi cv --data wine.csv --c-grid 4 --m-grid 1,3,7,89 --seed 1 --timing zero \
    --report-out cv_m_sweep.json --csv-out cv_m_sweep.csv > cv_m_sweep.stdout
# unsorted C with a repeat: each (fold, m) system is solved at its three
# distinct C in one stacked call, and both C = 0.5 configs get that fit
lugsi cv --data wine.csv --c-grid 64,0.5,4,0.5 --m-grid 3,89 --seed 1 --timing zero \
    --report-out cv_c_repeated.json --csv-out cv_c_repeated.csv > cv_c_repeated.stdout
# the default rbf grid: 765 configurations x 5 folds
lugsi cv --data wine.csv --kernel rbf --seed 1 --timing zero \
    --report-out cv_rbf_default.json --csv-out cv_rbf_default.csv > cv_rbf_default.stdout
# every wine row twice: m = 200 is above each training fold's 169-173
# distinct rows, so this byte-gates the clip of m to the distinct rows
lugsi cv --data wine_twice.csv --c-grid 1 --m-grid 7,200 --restarts 2 --seed 1 --timing zero \
    --report-out cv_wine_twice.json --csv-out cv_wine_twice.csv > cv_wine_twice.stdout
