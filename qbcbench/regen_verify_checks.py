"""Rewrite verify_checks.json: the (suite, check) rows `qbc verify` prints.

The verify workload requires exactly these rows, in this order, each PASS
with a nonzero count. Regenerate after a change that adds or renames a
check, from the root of a checkout:

    python3 qbcbench/regen_verify_checks.py
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from qbc import cli  # noqa: E402
from workloads import VERIFY_CHECKS_FILE, parse_verify_table  # noqa: E402

buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(["verify", "--seed", "42"])
if code != 0:
    sys.exit(f"qbc verify exited {code}; not rewriting {VERIFY_CHECKS_FILE}")
rows = [[suite, check] for suite, check, _, _ in parse_verify_table(buf.getvalue().encode())]
with open(VERIFY_CHECKS_FILE, "w", encoding="utf-8") as fh:
    json.dump(rows, fh, indent=1)
    fh.write("\n")
print(f"wrote {len(rows)} checks to {VERIFY_CHECKS_FILE}")
