#!/usr/bin/env bash
# Checks that the deterministic paper tables still print what
# results/all_tables.txt records.
#
# Runs table2_qor, table3_pass_ratio, fig3_sparsity and
# fig4_row_convergence (release build, a few seconds each) and diffs each
# one's output against its `=== name ===` section of the file. The
# timing tables and path_selection are left out: the first print wall
# times, the second takes most of a minute.
#
# Usage: scripts/check_tables.sh   (from any directory; exits 1 on a diff)
set -euo pipefail
cd "$(dirname "$0")/.."
tables=results/all_tables.txt
cargo build --release --quiet -p bench \
    --bin table2_qor --bin table3_pass_ratio --bin fig3_sparsity --bin fig4_row_convergence

# The lines between a section's header and the next one, without the
# blank line that separates sections.
section() {
    awk -v head="=== $1 ===" '
        $0 == head { on = 1; next }
        /^=== .* ===$/ { on = 0 }
        on { lines[n++] = $0 }
        END { if (n > 0 && lines[n - 1] == "") n--; for (i = 0; i < n; i++) print lines[i] }
    ' "$tables"
}

status=0
for t in table2_qor table3_pass_ratio fig3_sparsity fig4_row_convergence; do
    if out=$(diff -u <(section "$t") <("target/release/$t")); then
        echo "$t: matches $tables"
    else
        echo "$t: differs from its section of $tables:"
        echo "$out"
        status=1
    fi
done
exit "$status"
