#!/usr/bin/env bash
# The mutation table: each row is a small source patch that breaks one rule
# of the system on purpose, and the tests that must go red under it. A row is
# run on a temporary copy of the files its patch touches (git apply), and
# go test reads the copies in place of the originals through -overlay, so the
# checkout is never modified and no build tag or knob exists for the tests to
# be mutated through. Each row prints "caught" (a listed test failed),
# "missed" (all passed: the tests have lost their teeth) or "broken" (the
# patch no longer applies or the mutant does not build). The exit status is
# non-zero unless every row is caught.
#
#   bash mutations/run.sh
set -uo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# patch | package | go test -run pattern of the tests that must go red
rows=(
	"most-free-at-ttl0.patch|./internal/ncl|^TestLiveReplacementUsesCachedRegistry$"
	"publish-first-value.patch|./internal/peer|^TestPublisherWaitsIntervalAndSendsLatest$"
	"recycle-without-drop-rule.patch|./internal/ncl|^TestPolicyConformance$/^spare.s_name_re-created_at_another_size/"
	"keepalive-forgets-ephemerals.patch|./internal/harness|^TestIsolatedPeerRejoinsRegistry$"
	"readback-ignores-writer.patch|./internal/core|^TestDirectoryOlderThanFile$"
	"setup-replaces-same-epoch.patch|./internal/core|^TestDirectoryOlderThanFile$"
	"create-first-no-fallback.patch|./internal/core|^TestDirectoryOlderThanFile$"
	"pack-shares-view.patch|./internal/dfs|^TestSyncedBytesSurviveLaterPwrite$"
	"lru-hit-not-touched.patch|./internal/dfs|^TestBlockCacheMatchesStampScan$"
	"profile-field-no-source.patch|./internal/model|^TestEveryProfileFieldNamesItsSource$"
	"recycle-without-tombstone.patch|./internal/ncl|^TestPolicyConformance$/^delete_lost_after_the_recycle/"
	"list-skips-pending-release.patch|./internal/ncl|^TestReleasedNameWaitsForItsDelete$"
	"snapshot-ignores-overwrite.patch|./internal/ncl|^TestPolicyConformance$/^overwrite_below_the_catch-up_cut/"
	"failure-stays-on-its-log.patch|./internal/ncl|^TestPolicyConformance$/^a_quiet_log_loses_members_another_log_sees/"
	"recovery-ignores-recycle-marker.patch|./internal/ncl|^TestPolicyConformance$/^set-ups_lost_beside_the_create/"
	"create-beside-fresh-setup.patch|./internal/ncl|^TestPolicyConformance$/^app_crash_in_a_fresh_open/"
	"failed-open-keeps-entry.patch|./internal/ncl|^TestPolicyConformance$/^spare_members_down_beside_the_create/"
	"hint-per-client.patch|./internal/controller|^TestClientsOnOneNodeShareTheLeaderHint$"
	"setup-failure-not-blamed.patch|./internal/ncl|^TestPoolDropsDeadPeerInsideRefreshWindow$/^ttl=0s$"
	"apmap-write-ignores-fence.patch|./internal/controller|^TestSessionFencesItsAppDirectory$"
	"lost-delete-trusts-cache.patch|./internal/ncl|^TestLostDeleteLeavesNameUnsure$"
	"repair-kick-lost.patch|./internal/ncl|^TestStalledRecordWaitsForItsReplacement$"
	"flush-wakes-no-writer.patch|./internal/apps/kvstore|^TestStalledWriterResumesAfterFlush$"
	"writeback-wakes-no-staller.patch|./internal/dfs|^TestDirtyHighWaterStallsWriter$"
	"fsync-skips-inflight-flush.patch|./internal/dfs|^TestFsyncWaitsForInflightWriteback$"
)

status=0
for row in "${rows[@]}"; do
	IFS='|' read -r patch pkg run <<<"$row"
	tmp="$(mktemp -d)"
	verdict=broken
	if files=$(git apply --numstat "$here/$patch" | cut -f3) && [ -n "$files" ]; then
		replace=""
		for f in $files; do
			mkdir -p "$tmp/$(dirname "$f")"
			cp "$root/$f" "$tmp/$f"
			replace+="${replace:+,}\"$root/$f\":\"$tmp/$f\""
		done
		echo "{\"Replace\":{$replace}}" >"$tmp/overlay.json"
		if (cd "$tmp" && git apply "$here/$patch"); then
			out=$(cd "$root" && go test -count=1 -overlay "$tmp/overlay.json" -run "$run" "$pkg" 2>&1)
			if grep -q -- '--- FAIL' <<<"$out"; then
				verdict=caught
			elif grep -q '^ok' <<<"$out"; then
				verdict=missed
			fi
		fi
	fi
	rm -rf "$tmp"
	printf '%-38s %-24s %s\n' "$patch" "$pkg" "$verdict"
	[ "$verdict" = caught ] || status=1
done
exit $status
