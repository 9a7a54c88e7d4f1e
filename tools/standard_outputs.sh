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

lugsi() {
    PYTHONPATH="$src/src" python3 -m lugsi.cli "$@"
}

for kernel in linear rbf; do
    lugsi cv --data wine.csv --kernel "$kernel" --seed 1 --timing zero \
        --c-grid 0.5,4,64 --delta-grid 0.5,2 \
        --report-out "cv_$kernel.json" --csv-out "cv_$kernel.csv" > "cv_$kernel.stdout"
done

train() {
    local name=$1
    shift
    lugsi train --data wine.csv --seed 1 "$@" --model-out "train_$name.json" \
        | grep -v '^wall_seconds ' > "train_$name.stdout"
    lugsi predict --data wine.csv --model "train_$name.json" --out "predict_$name.csv"
}
train linear --clusters 7
train rbf --clusters 7 --kernel rbf --delta 0.5
train cro --clusters 7 --kernel cro --cro-gamma 0.3
train empirical --clusters 178 --measure empirical

lugsi granulate --data wine.csv --clusters 5 --out granulate.csv
lugsi granulate --data wine.csv --clusters 5 --emit-v --out granulate_v.csv

lugsi bench sizes --sizes 300,600 --timing zero --out bench_sizes.csv
# a granule-count sweep at one C
lugsi cv --data wine.csv --c-grid 4 --m-grid 1,3,7,89 --seed 1 --timing zero \
    --report-out cv_m_sweep.json --csv-out cv_m_sweep.csv > cv_m_sweep.stdout
