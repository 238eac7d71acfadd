package jobstore

import "repro/internal/obs"

// Store metrics (obs registry). Only the WAL counts: its fsyncs are the
// durability cost a job pays, and its lazy appends are the writes that
// ride on someone else's fsync.
var (
	mFsyncs = obs.Default().Counter("jobstore_fsyncs_total",
		"fsyncs the WAL store issued: group commits, compactions, Open and Close")
	mLazyWrites = obs.Default().Counter("jobstore_lazy_writes_total",
		"WAL records appended without an fsync of their own (snapshots, deletes); the next group commit, compaction or Close makes them durable")
)
