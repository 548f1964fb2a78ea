#!/usr/bin/env bash
# Checkpoint format-version guard.
#
# A checkpoint written by one build must either restore bit-exactly in
# another or be rejected with a coded version error -- silently
# restoring a reinterpreted layout is the one failure the container's
# CRCs cannot catch. So any change to the serialization surface must
# come with a kCkptFormatVersion bump, and this script makes that a CI
# failure instead of a review convention.
#
# The "serialization surface" is:
#   - every file under src/ckpt/ (container layout, archiver
#     encoding, container helpers), hashed whole;
#   - the bodies of every `ckpt(ckpt::Archiver &)` serializer and of
#     `serializeCheckpoint` / `restoreCheckpoint` / `ckptSections`
#     (the section registries) in src/**/*.cc, extracted by brace
#     position so unrelated edits in the same files do not trip the
#     lint.
#
# scripts/ckpt_format.lock records kCkptFormatVersion plus a per-file
# SHA-256 of that surface. Usage:
#
#   scripts/ckpt_lint.sh             verify (the check.sh stage-5 gate)
#   scripts/ckpt_lint.sh --update    refresh the lock after a version
#                                    bump (refuses if the version did
#                                    not change)
#   scripts/ckpt_lint.sh --update --force
#                                    refresh without a bump, for
#                                    provably layout-neutral edits
#                                    (comments, internal refactors)
set -euo pipefail

cd "$(dirname "$0")/.."

LOCK=scripts/ckpt_format.lock
VERSION_HEADER=src/ckpt/checkpoint.hh

update=0
force=0
for arg in "$@"; do
    case "$arg" in
        --update) update=1 ;;
        --force) force=1 ;;
        *)
            echo "usage: $0 [--update [--force]]" >&2
            exit 2
            ;;
    esac
done
if [ "$force" -eq 1 ] && [ "$update" -eq 0 ]; then
    echo "ckpt_lint: --force only makes sense with --update" >&2
    exit 2
fi

version=$(sed -n 's/.*kCkptFormatVersion = \([0-9][0-9]*\).*/\1/p' \
          "$VERSION_HEADER")
if [ -z "$version" ]; then
    echo "ckpt_lint: cannot find kCkptFormatVersion in" \
         "$VERSION_HEADER" >&2
    exit 2
fi

# One "<sha256>  <path>" line per surface file, sorted by path. The
# serializer bodies run from their column-0 signature line to the next
# column-0 closing brace (the repo's definition style), so comment or
# logic edits elsewhere in the same file hash identically.
surface() {
    local f
    for f in $(ls src/ckpt/*.hh src/ckpt/*.cc | sort); do
        printf '%s  %s\n' "$(sha256sum <"$f" | cut -d' ' -f1)" "$f"
    done
    for f in $(grep -rlE \
            '::(ckpt\(ckpt::Archiver|serializeCheckpoint\(|restoreCheckpoint\(|ckptSections\()' \
            src --include='*.cc' | sort); do
        printf '%s  %s (serializer bodies)\n' \
            "$(awk '/::(ckpt\(ckpt::Archiver|serializeCheckpoint\(|restoreCheckpoint\(|ckptSections\()/ {p=1}
                    p {print}
                    p && /^\}/ {p=0}' "$f" | sha256sum | cut -d' ' -f1)" \
            "$f"
    done
}

current_lock() {
    echo "# Checkpoint serialization surface lock."
    echo "# Generated by scripts/ckpt_lint.sh --update; do not edit."
    echo "version $version"
    surface
}

want=$(current_lock)

if [ "$update" -eq 1 ]; then
    if [ -f "$LOCK" ]; then
        locked_version=$(sed -n 's/^version //p' "$LOCK")
        locked_surface=$(sed -n '/^version /,$p' "$LOCK" | tail -n +2)
        new_surface=$(printf '%s\n' "$want" | sed -n '/^version /,$p' |
                      tail -n +2)
        if [ "$locked_version" = "$version" ] &&
           [ "$locked_surface" != "$new_surface" ] &&
           [ "$force" -eq 0 ]; then
            echo "ckpt_lint: surface changed but kCkptFormatVersion" \
                 "is still $version." >&2
            echo "ckpt_lint: bump it in $VERSION_HEADER first, or" \
                 "pass --force for a layout-neutral change." >&2
            exit 1
        fi
    fi
    printf '%s\n' "$want" >"$LOCK"
    echo "ckpt_lint: wrote $LOCK (format version $version)"
    exit 0
fi

if [ ! -f "$LOCK" ]; then
    echo "ckpt_lint: $LOCK is missing; run $0 --update and commit" \
         "it" >&2
    exit 1
fi

have=$(cat "$LOCK")
if [ "$have" = "$want" ]; then
    files=$(printf '%s\n' "$want" | grep -c '^[0-9a-f]')
    echo "ckpt_lint: OK (format version $version, $files surface files)"
    exit 0
fi

locked_version=$(sed -n 's/^version //p' "$LOCK")
echo "ckpt_lint: checkpoint serialization surface drifted from" \
     "$LOCK:" >&2
diff <(printf '%s\n' "$have") <(printf '%s\n' "$want") |
    grep '^[<>]' >&2 || true
if [ "$locked_version" != "$version" ]; then
    echo "ckpt_lint: kCkptFormatVersion changed" \
         "($locked_version -> $version); run $0 --update and commit" \
         "the lock." >&2
else
    echo "ckpt_lint: the on-disk layout may have changed without a" \
         "kCkptFormatVersion bump." >&2
    echo "ckpt_lint: bump it in $VERSION_HEADER and run $0 --update," \
         "or use $0 --update --force if the change is provably" \
         "layout-neutral." >&2
fi
exit 1
