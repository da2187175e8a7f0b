"""The seven --help texts, pinned byte for byte at an 80-column terminal.

Every subcommand's parser is built from one flag table in coreseg.cli;
these texts are what that table must keep producing.
"""

import pytest

from coreseg.cli import main

HELP = {
    "": """\
usage: coreseg [-h] [--version] {tile,fuse,cc,select,evaluate,report} ...

Core-set selection and evaluation pipeline for 3D segmentation

positional arguments:
  {tile,fuse,cc,select,evaluate,report}
    tile                pad a volume and cut it into patches
    fuse                stack 2D slice masks and label 3D instances
    cc                  label connected components of a mask volume
    select              select items by core-set or random strategy
    evaluate            score a prediction against ground truth
    report              aggregate metrics files into learning curves

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "tile": """\
usage: coreseg tile [-h] [--config CONFIG] [--force] [--volume VOLUME]
                    [--name VOLUME_NAME] [--patch PATCH_SHAPE]
                    [--pad-mode PAD_MODE] [--out-dir OUT_DIR]

options:
  -h, --help           show this help message and exit
  --config CONFIG      flat key=value configuration file
  --force              overwrite existing outputs
  --volume VOLUME      input .vol3d volume
  --name VOLUME_NAME   volume name for patch files
  --patch PATCH_SHAPE  patch shape Z,Y,X
  --pad-mode PAD_MODE  zero or reflect (default reflect)
  --out-dir OUT_DIR    directory for patches
""",
    "fuse": """\
usage: coreseg fuse [-h] [--config CONFIG] [--force] [--slices-dir SLICES_DIR]
                    [--connectivity CONNECTIVITY] [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value configuration file
  --force               overwrite existing outputs
  --slices-dir SLICES_DIR
                        directory of z=1 .vol3d slices
  --connectivity CONNECTIVITY
                        6 or 26 (default 26)
  --out OUT             output .vol3d instance volume
""",
    "cc": """\
usage: coreseg cc [-h] [--config CONFIG] [--force] [--mask MASK]
                  [--connectivity CONNECTIVITY] [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value configuration file
  --force               overwrite existing outputs
  --mask MASK           input binary_mask .vol3d volume
  --connectivity CONNECTIVITY
                        6 or 26 (default 26)
  --out OUT             output .vol3d instance volume
""",
    "select": """\
usage: coreseg select [-h] [--config CONFIG] [--force]
                      [--embeddings EMBEDDINGS] [--method METHOD]
                      [--budget BUDGET] [--budgets BUDGETS] [--seed RNG_SEED]
                      [--k-init K_INIT] [--out-dir OUT_DIR]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value configuration file
  --force               overwrite existing outputs
  --embeddings EMBEDDINGS
                        embedding file stem (<stem>.meta/.f32/.ids)
  --method METHOD       coreset or random (default coreset)
  --budget BUDGET       single budget overriding the config list
  --budgets BUDGETS     comma-separated budget list
  --seed RNG_SEED       selection seed
  --k-init K_INIT       random initial picks
  --out-dir OUT_DIR     directory for manifests
""",
    "evaluate": """\
usage: coreseg evaluate [-h] [--config CONFIG] [--force] [--pred PRED]
                        [--gt GT] [--iou-threshold IOU_THRESHOLD]
                        [--budget BUDGET] [--out-dir OUT_DIR]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value configuration file
  --force               overwrite existing outputs
  --pred PRED           predicted instance .vol3d volume
  --gt GT               ground-truth instance .vol3d volume
  --iou-threshold IOU_THRESHOLD
                        strict IoU match threshold in [0.5, 1) (default 0.5)
  --budget BUDGET       budget stamped into the record
  --out-dir OUT_DIR     directory for metrics files
""",
    "report": """\
usage: coreseg report [-h] [--config CONFIG] [--force]
                      [--metrics-dir METRICS_DIR]
                      [--fraction SURPASS_FRACTION] [--out-dir OUT_DIR]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value configuration file
  --force               overwrite existing outputs
  --metrics-dir METRICS_DIR
                        directory of metrics_b*.csv
  --fraction SURPASS_FRACTION
                        surpass fraction in (0, 1] (default 0.9)
  --out-dir OUT_DIR     directory for report files
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=[c or "top-level" for c in HELP])
def test_help_text_is_pinned(capsys, monkeypatch, command):
    # argparse wraps at the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]
