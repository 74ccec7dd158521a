# Verification stages for the aspect-moderator reproduction.
#
#   make tier1       — build + full test suite (the gating check), the
#                      schedtest explorer again at GOMAXPROCS 1 and 8 so
#                      its verdict cannot depend on the host's core
#                      count, then every BenchmarkE1-E11 body once so the
#                      paper experiments cannot rot
#   make lint        — go vet, gofmt -l over every tracked .go file (any
#                      name printed fails), plus staticcheck when it is
#                      on PATH
#   make race        — full suite under the race detector, plus a focused
#                      double-count pass over the sharded-moderator stress,
#                      differential-oracle, mutex-tier, optimistic and
#                      route-equivalence tests and the waitq recycled-
#                      waiter race, the obs event ring/histogram/churn
#                      concurrency tests, ten rounds of the amrpc
#                      line-buffer aliasing, late-reply, frame-writer and
#                      flush-ledger tests, and three of the amrpc retry,
#                      re-dial and backoff-schedule tests
#   make fuzz-smoke  — 10s of coverage-guided fuzzing per target: the
#                      wire encoders and decoders and the value decoder
#                      (each differential against encoding/json), the
#                      interference checker, and the seqlock guard-eval
#                      differential target
#   make bench       — the one benchmark harness: `bash benchmark/run.sh`,
#                      all five workloads into benchmark/out/ (see
#                      benchmark/README.md). ARGS is passed through:
#                        make bench ARGS='--workload rpc_sequential --seed 2'
#                        make bench ARGS='-compare parent.json change.json'
#                      -compare prints better/same/worse/unresolved per
#                      metric for two result files and measures nothing
#   make obs-smoke   — boot ticketd with -obs, drive load, assert /metrics
#                      and /trace serve live non-empty data
#   make shadow-smoke — boot ticketd with -shadow 1 (every admission
#                      replayed against the reference semantics), drive
#                      load, assert /shadow reports samples and ZERO
#                      divergences on the stock ticket application
#   make cluster-smoke — the 3-node in-process admission-plane soak:
#                      ≥1000 guarded invocations under chaosnet faults
#                      with a mid-run partition+heal and an owner kill,
#                      plus the failover and park-readmission tests
#   make handoff-smoke — the deterministic state-handoff certification:
#                      graceful release via the snapshot barrier, hard
#                      kill via effect-log catch-up, and stale-term
#                      replication fencing
#   make check       — tier1 + lint + race + fuzz-smoke + obs-smoke +
#                      shadow-smoke + cluster-smoke + handoff-smoke

GO ?= go
FUZZTIME ?= 10s
OBS_SMOKE_DIR := $(or $(TMPDIR),/tmp)/obs-smoke
SHADOW_SMOKE_DIR := $(or $(TMPDIR),/tmp)/shadow-smoke

.PHONY: tier1 lint race fuzz-smoke bench obs-smoke shadow-smoke cluster-smoke handoff-smoke check

tier1:
	$(GO) build ./...
	$(GO) test ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/schedtest
	GOMAXPROCS=8 $(GO) test -count=1 ./internal/schedtest
	$(GO) test -run '^$$' -bench . -benchtime 1x .

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt -l:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet ran)"; \
	fi

race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -short -run 'TestModeratorStress|TestDifferential|TestWakeMode|TestMutexTier|TestOptimistic|TestRoute|TestCancelRaceRecycledWaiterCarriesNoToken' ./internal/moderator/ ./internal/waitq/
	$(GO) test -race -count=2 -run 'TestObsUnderLayerChurn|TestHistogramMergeRace|TestRingNeverBlocks' ./internal/obs/
	$(GO) test -race -count=10 -run 'TestConcurrentPipelinedCalls|TestLateReplyToAbandonedCall|TestFrameWriter|TestWriterCoalescingAccounting' ./internal/amrpc/
	$(GO) test -race -count=3 -run 'TestIdempotentCallRetriesThroughReconnect|TestCallerDeadlineStopsRetries|TestChaosCorruptionRecoveredByChecksumAndRetry|TestBackoff' ./internal/amrpc/

bench:
	bash benchmark/run.sh $(ARGS)

fuzz-smoke:
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzSealRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzSealResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzDecodeValue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/moderator -run '^$$' -fuzz '^FuzzInterferenceChecker$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/moderator -run '^$$' -fuzz '^FuzzSeqlockGuardEval$$' -fuzztime $(FUZZTIME)

# End-to-end introspection smoke: a real ticketd process with the obs
# endpoint enabled, a real ticketcli driving load over amrpc, then the
# HTTP surface must serve non-empty metrics and a non-empty trace dump.
obs-smoke:
	rm -rf $(OBS_SMOKE_DIR) && mkdir -p $(OBS_SMOKE_DIR)
	$(GO) build -o $(OBS_SMOKE_DIR)/ticketd ./cmd/ticketd
	$(GO) build -o $(OBS_SMOKE_DIR)/ticketcli ./cmd/ticketcli
	$(OBS_SMOKE_DIR)/ticketd -addr 127.0.0.1:7941 -obs 127.0.0.1:7942 -obs-sample 1 -audit 0 \
		> $(OBS_SMOKE_DIR)/ticketd.log 2>&1 & echo $$! > $(OBS_SMOKE_DIR)/ticketd.pid
	sh -c 'trap "kill $$(cat $(OBS_SMOKE_DIR)/ticketd.pid) 2>/dev/null" EXIT; \
		for i in $$(seq 1 50); do \
			$(OBS_SMOKE_DIR)/ticketcli -addr 127.0.0.1:7941 open smoke "obs smoke" >/dev/null 2>&1 && break; \
			sleep 0.1; \
		done; \
		$(OBS_SMOKE_DIR)/ticketcli -addr 127.0.0.1:7941 load -n 50 >/dev/null; \
		curl -sf http://127.0.0.1:7942/metrics > $(OBS_SMOKE_DIR)/metrics.txt; \
		curl -sf "http://127.0.0.1:7942/trace?n=32" > $(OBS_SMOKE_DIR)/trace.json; \
		grep -q "^am_admissions_total" $(OBS_SMOKE_DIR)/metrics.txt || { echo "obs-smoke: no admissions in /metrics"; exit 1; }; \
		grep -q "\"op\": *\"admit\"" $(OBS_SMOKE_DIR)/trace.json || { echo "obs-smoke: no admit events in /trace"; exit 1; }; \
		$(OBS_SMOKE_DIR)/ticketcli obs -url http://127.0.0.1:7942 -view summary | grep -q "sampling" || { echo "obs-smoke: ticketcli obs summary failed"; exit 1; }'
	@echo "obs-smoke: OK"

# End-to-end shadow-admission smoke: a real ticketd with shadow mode
# replaying EVERY admission against the reference semantics, a real
# ticketcli driving load over amrpc, then /shadow must report samples and
# zero divergences — the differential oracle holding as a production
# safety net on the stock ticket application.
shadow-smoke:
	rm -rf $(SHADOW_SMOKE_DIR) && mkdir -p $(SHADOW_SMOKE_DIR)
	$(GO) build -o $(SHADOW_SMOKE_DIR)/ticketd ./cmd/ticketd
	$(GO) build -o $(SHADOW_SMOKE_DIR)/ticketcli ./cmd/ticketcli
	$(SHADOW_SMOKE_DIR)/ticketd -addr 127.0.0.1:7943 -obs 127.0.0.1:7944 -shadow 1 -audit 0 \
		> $(SHADOW_SMOKE_DIR)/ticketd.log 2>&1 & echo $$! > $(SHADOW_SMOKE_DIR)/ticketd.pid
	sh -c 'trap "kill $$(cat $(SHADOW_SMOKE_DIR)/ticketd.pid) 2>/dev/null" EXIT; \
		for i in $$(seq 1 50); do \
			$(SHADOW_SMOKE_DIR)/ticketcli -addr 127.0.0.1:7943 open smoke "shadow smoke" >/dev/null 2>&1 && break; \
			sleep 0.1; \
		done; \
		$(SHADOW_SMOKE_DIR)/ticketcli -addr 127.0.0.1:7943 load -n 100 >/dev/null; \
		sleep 0.3; \
		curl -sf http://127.0.0.1:7944/shadow > $(SHADOW_SMOKE_DIR)/shadow.json; \
		grep -q "\"sampled\": *[1-9]" $(SHADOW_SMOKE_DIR)/shadow.json || { echo "shadow-smoke: no sampled admissions in /shadow"; cat $(SHADOW_SMOKE_DIR)/shadow.json; exit 1; }; \
		grep -q "\"verdict_divergences\": *0" $(SHADOW_SMOKE_DIR)/shadow.json || { echo "shadow-smoke: verdict divergences on the stock app"; cat $(SHADOW_SMOKE_DIR)/shadow.json; exit 1; }; \
		grep -q "\"stack_divergences\": *0" $(SHADOW_SMOKE_DIR)/shadow.json || { echo "shadow-smoke: stack divergences on the stock app"; cat $(SHADOW_SMOKE_DIR)/shadow.json; exit 1; }; \
		grep -q "\"wake_divergences\": *0" $(SHADOW_SMOKE_DIR)/shadow.json || { echo "shadow-smoke: wake divergences on the stock app"; cat $(SHADOW_SMOKE_DIR)/shadow.json; exit 1; }; \
		$(SHADOW_SMOKE_DIR)/ticketcli obs -url http://127.0.0.1:7944 -view shadow | grep -q "\"replayed\"" || { echo "shadow-smoke: ticketcli obs -view shadow failed"; exit 1; }'
	@echo "shadow-smoke: OK"

# The distributed-admission certification run: a 3-node in-process
# cluster soak (chaos faults on every data-plane link, one node
# partitioned and healed mid-run, the owner of a domain killed outright)
# plus the deterministic failover and parked-caller re-admission tests.
# The ledger audit inside demands zero lost and zero forged effects.
cluster-smoke:
	$(GO) test ./internal/cluster/ -count=1 -timeout 120s \
		-run 'TestClusterChaosSoak|TestClusterFailover|TestClusterFailoverReadmitsParkedCallers|TestClusterDifferentialOracle'
	@echo "cluster-smoke: OK"

# The state-handoff certification run: one deterministic test per handoff
# path. Graceful release must move the domain's full state through the
# snapshot barrier before the lease moves; a hard kill must recover it
# from the streamed effect log alone (no snapshot hooks); a zombie
# leader's replication offer at a stale term must be refused; a lease
# re-acquired at an unchanged term must keep its effect log; and a
# snapshot the taker cannot install must be counted as a catch-up gap.
handoff-smoke:
	$(GO) test ./internal/cluster/ -count=1 -timeout 120s \
		-run 'TestClusterGracefulHandoffSnapshot|TestClusterHardKillLogCatchup|TestClusterStaleSyncOfferRefused|TestClusterSameTermReacquireKeepsReplication|TestClusterSnapshotWithoutRestoreCountsGap'
	@echo "handoff-smoke: OK"

check: tier1 lint race fuzz-smoke obs-smoke shadow-smoke cluster-smoke handoff-smoke
