#!/usr/bin/env sh
# Tier-1 verify gate. Run from anywhere; every PR must pass this.
#
#   build      — everything compiles
#   gofmt      — no file differs from canonical formatting
#   vet        — the stock Go checks
#   tlcvet     — project invariants, test files included: sim
#                determinism (simtime, seededrand), PoC crypto hygiene
#                (cryptorand), error discipline (errdiscard),
#                allocation-free hot paths (hotalloc), the two-tier
#                metrics rule (metricstier), goroutine stop paths
#                (goroleak), code no binary reaches (unreached) and
#                waiver hygiene (staleallow); the JSON report is
#                archived to tlcvet_report.json
#   figures    — every experiment's text at quick size, sequential and
#                on two sweep workers, and at full size (45 s cycles,
#                2 seeds) on two workers, equals the checked-in golden
#                (internal/experiment/testdata/figures_{quick,full}.golden)
#                byte for byte, Figure 17's wall-clock rows under a
#                fixed stopwatch, and so do the registry deltas each
#                experiment publishes (every counter and gauge, and the
#                buckets and count of each histogram of simulated
#                values) against registry_{quick,full}.golden; a
#                failure names the golden, the experiment and its first
#                differing line. Each experiment's links must also
#                balance: packets enqueued plus fault duplicates equal
#                packets delivered, dropped, in flight and queued
#   sweep      — parallel sweep engine smoke: ordering, panic
#                propagation and figure parity under the race detector
#   shardparity — sharded event engine determinism under the race
#                detector: byte-identical city replay across shard
#                counts, lane merge order, randomized differential
#   chaos      — end-to-end fault-injection cycle under the race
#                detector: every fault family fires, the trace replays
#                byte-identically, and the settlement stays bounded
#   race       — full test suite under the race detector
#   operator   — the live tlcd operator: concurrent connections
#                (stalled-client regression), a real HTTP scrape of
#                /metrics and /healthz, signal-driven drain, tlcd's
#                edge (one TLCMUX1 session per conn) and multiplexed
#                conns served side by side by the session engine,
#                both settling through stream faults on both ends, and
#                each accepted conn drawing its faults from its own seed
#   examples   — the quickstart, gaming, vredge and webcam examples run
#                end to end against the root tlc API and exit 0 (the
#                ledger stage runs examples/auditor)
#   tlcdscale  — the sharded session engine under the race detector:
#                the admission-control overload regression (reject,
#                never deadlock or leak), 2,000 sessions over 8 conns
#                at 1 and 8 shards settling with zero rejections or
#                failures below the admission cap, the refusal of a
#                first frame that is not a hello, the byzantine failure
#                classes on a mux conn (each ends in a typed reject),
#                the client's retry contract on its typed cause, the
#                mux client's per-conn state (one loop per client conn
#                drives it) fed scripted frames with no socket, and the
#                table's per-conn teardown sweep and abort, keyed by
#                the conn itself
#   ledger     — the durable charging ledger: the crash-point torture
#                sweeps (every kill offset of the tail segment, bit
#                flips, injected fsync failpoints; the read-only replay
#                must report each as corrupt before reopen repairs it,
#                with whole and with half reads), the replay
#                differential, the golden digest of the bytes a ledger
#                writes, and Open's refusal of a frame that verifies
#                but does not decode (a retired kind among them: it
#                returns ErrCorrupt and cuts none of the receipts
#                behind it), all under the race detector, a short
#                coverage-guided fuzz of the segment scanner (whole and
#                one-byte reads must agree), and the
#                examples/auditor run, which exits non-zero unless its
#                receipt archive (a ledger) audits to the settled total
#   allocs     — testing.AllocsPerRun guards for the event-engine
#                (handle-less events and a FIFO stream's push and
#                fire), metrics-observation, GTP tunnel and
#                frame-reader hot paths, raw malloc counts over a
#                backlogged link (its queue must slide, not regrow),
#                over a link ending background packets at its
#                transmitter and over held transmissions,
#                plus the ledger read bound (replaying a real-disk
#                ledger of full segments allocates under half a
#                record's framed size per record: reads hold one
#                record, not a segment); these skip themselves under
#                -race (its instrumentation perturbs counts), so they
#                need this separate non-race pass
#   bench      — every benchmark compiles and survives one iteration
#                (BenchmarkReplay/DirFS streams a ledger off the real
#                disk), plus a quick sharded city run at -shards 2 through
#                the tlcbench CLI (exercises the -shards plumbing)
#   perfbench  — the benchmark's own module (perfbench/, a separate
#                go.mod that the root build, vet and tests never
#                compile): vet plus its short contract, parity and
#                per-workload smoke tests
#   roaming    — the multi-operator settlement chain: chain codec and
#                verifier forgery battery, the three-party wire
#                protocol, the chained-game/settlement property tests
#                and the roaming experiment (byz_chain_verified == 0,
#                worker parity), all under the race detector, plus a
#                short coverage-guided fuzz of the chain verifier
#   fuzz       — short coverage-guided smoke on the adversarial
#                surfaces: the protocol framing decoder, the mux frame
#                decoder and the PoC verifier (forged proofs must
#                never verify)
set -eu
cd "$(dirname "$0")"

# stage <name> <cmd...> runs one gate with a named, timed header so a
# red CI log says which stage died and where the minutes went.
stage() {
	_name=$1
	shift
	printf '==> %-9s %s\n' "$_name" "$*"
	_t0=$(date +%s)
	"$@"
	printf '<== %-9s ok (%ss)\n' "$_name" "$(($(date +%s) - _t0))"
}

city_smoke() {
	go run ./cmd/tlcbench -experiment city -quick -shards 2 -json - >/dev/null
}

run_examples() {
	for _ex in quickstart gaming vredge webcam; do
		go run "./examples/$_ex" >/dev/null
	done
}

perfbench_check() {
	(cd perfbench && go vet ./... && go test -short ./...)
}

gofmt_clean() {
	_unformatted=$(gofmt -l .)
	if [ -n "$_unformatted" ]; then
		echo 'gofmt: the following files need gofmt -w:' >&2
		echo "$_unformatted" >&2
		return 1
	fi
}

stage build go build ./...
stage gofmt gofmt_clean
stage vet go vet ./...
stage tlcvet go run ./cmd/tlcvet -json-out tlcvet_report.json ./...
stage figures go test -run FigureGoldens -count=1 ./internal/experiment
stage sweep go test -run Parallel -race ./internal/experiment
stage shardparity go test -run ShardParity -race ./internal/sim ./internal/netem ./internal/stats ./internal/experiment
stage chaos go test -run Chaos -race ./internal/experiment
stage race go test -race ./...
stage operator go test -run Operator -race -count=1 ./cmd/tlcd
stage examples run_examples
stage tlcdscale go test -run 'EngineOverload|EngineSettlesMuxedSessions|EngineRefusesBareKey|EngineFailsByzantine|EngineClientCause|ClientConnAnswersScriptedFrames|EvictConnSweepsTable|AbortIgnoresConnIDAlias' -race -count=1 ./internal/session
stage ledger go test -run 'Torture|Prop|Golden|Refuses' -short -race ./internal/ledger
stage ledger go test -run '^$' -fuzz '^FuzzLedgerReplay$' -fuzztime 10s ./internal/ledger
stage ledger go run ./examples/auditor
stage allocs go test -run 'ZeroAlloc|AllocsPerRecord' ./internal/sim ./internal/netem ./internal/epc ./internal/metrics ./internal/protocol ./internal/ledger
stage bench go test -run '^$' -bench . -benchtime 1x ./...
stage bench city_smoke
stage perfbench perfbench_check
stage roaming go test -run 'Chain|Roaming|Byzantine|Settle|Forger|ChainedG' -race ./internal/poc ./internal/protocol ./internal/roaming ./internal/experiment
stage roaming go test -run '^$' -fuzz '^FuzzChainVerify$' -fuzztime 10s ./internal/poc
stage fuzz go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s ./internal/protocol
stage fuzz go test -run '^$' -fuzz '^FuzzDecodeMux$' -fuzztime 10s ./internal/session
stage fuzz go test -run '^$' -fuzz '^FuzzPoCVerify$' -fuzztime 10s ./internal/poc
