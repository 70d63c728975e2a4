package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/release"
	"pufferfish/internal/server"
)

// syncFS wraps the real filesystem to count (and, in the trace run,
// time) every File.Sync the WAL issues.
type syncFS struct {
	faultfs.FS
	syncs atomic.Int64
	// skip turns Sync into a no-op; only the generator of the carried-
	// over journal uses it, where durability is irrelevant.
	skip bool
	// onSync, when set, receives every Sync's start and end.
	onSync func(start, end time.Time)
}

func (f *syncFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	h, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: h, fs: f}, nil
}

type syncFile struct {
	faultfs.File
	fs *syncFS
}

func (f *syncFile) Sync() error {
	if f.fs.skip {
		return nil
	}
	f.fs.syncs.Add(1)
	start := time.Now()
	err := f.File.Sync()
	if f.fs.onSync != nil {
		f.fs.onSync(start, time.Now())
	}
	return err
}

// Carried-over state of accounted-wal: each session's snapshot folds
// in snapEntries charges, and the journal holds journalRecords more
// charges written after the snapshot.
const (
	snapEntries    = 250
	journalRecords = 40000
)

// carried is the durable state accounted-wal boots from.
type carried struct {
	dir string
	// perSession counts each session's charges in snapshot + journal.
	perSession map[string]int
	records    int // journal records
}

// writeCarried generates the snapshot and journal into dir from the
// seed: the state a server that charged every session for a while
// leaves behind between two checkpoints.
func writeCarried(in *inputs, dir string) (*carried, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entry, err := plannedEntry(in.w)
	if err != nil {
		return nil, err
	}
	c := &carried{dir: dir, perSession: map[string]int{}, records: journalRecords}
	snaps := map[string]accounting.Snapshot{}
	for s := 0; s < in.w.sessions; s++ {
		name := sessionName(s)
		entries := make([]accounting.Entry, snapEntries)
		for i := range entries {
			entries[i] = entry
		}
		snaps[name] = accounting.Snapshot{Delta: accounting.DefaultDelta, Entries: entries}
		c.perSession[name] = snapEntries
	}
	walSeq := uint64(in.w.sessions * snapEntries)
	fsys := &syncFS{FS: faultfs.OS, skip: true}
	if err := server.SaveSnapshotFS(fsys, filepath.Join(dir, "snapshot.json"), release.NewScoreCache(), snaps, walSeq); err != nil {
		return nil, err
	}
	w, _, err := wal.Recover(fsys, faultfs.WallClock{}, filepath.Join(dir, "journal.wal"), walSeq)
	if err != nil {
		return nil, err
	}
	rng := streamRNG(in.seed, streamJournal, 0)
	for i := 0; i < journalRecords; i++ {
		name := sessionName(rng.IntN(in.w.sessions))
		if _, err := w.Append(name, entry); err != nil {
			w.Close()
			return nil, err
		}
		c.perSession[name]++
	}
	return c, w.Close()
}

// plannedEntry is the exact charge of one release of the workload's
// accounted class.
func plannedEntry(w *workload) (accounting.Entry, error) {
	c := w.mix[0].batch[0]
	sessions := make([][]int, len(c.lengths))
	for i, T := range c.lengths {
		sessions[i] = make([]int, T)
		sessions[i][0] = c.k - 1
	}
	m := member{class: c, data: nil}
	p, err := release.Prepare(sessions, m.config())
	if err != nil {
		return accounting.Entry{}, err
	}
	return p.PlannedEntry()
}

// copyState copies the carried-over files into a fresh boot directory.
func (c *carried) copyState(dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{"snapshot.json", "journal.wal"} {
		blob, err := os.ReadFile(filepath.Join(c.dir, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// checkJournal re-reads a server's journal after shutdown: it must
// hold the carried-over records plus exactly one per acknowledged
// charge, and each session's record count must match its ledger.
func checkJournal(c *carried, dir string, charged map[string]int, ledgers map[string]server.AccountantStats, fail *failures) {
	w, res, err := wal.Recover(faultfs.OS, faultfs.WallClock{}, filepath.Join(dir, "journal.wal"), 0)
	if err != nil {
		fail.add("journal re-read: %v", err)
		return
	}
	defer w.Close()
	want := c.records
	for _, n := range charged {
		want += n
	}
	if len(res.Records) != want || res.Torn {
		fail.add("journal holds %d records (torn=%v), want %d carried + acknowledged", len(res.Records), res.Torn, want)
	}
	bySession := map[string]int{}
	for _, rec := range res.Records {
		bySession[rec.Session]++
	}
	for name, snap := range c.perSession {
		got := ledgers[name].Releases
		if want := snap + charged[name]; got != want {
			fail.add("session %s: ledger counts %d releases, want %d", name, got, want)
		}
		if want := snap - snapEntries + charged[name]; bySession[name] != want {
			fail.add("session %s: journal holds %d records, want %d", name, bySession[name], want)
		}
	}
	if len(ledgers) != len(c.perSession) {
		fail.add("%d accountant sessions, want %d", len(ledgers), len(c.perSession))
	}
	for name, st := range ledgers {
		if st.RDPEpsilon > ceilingEps/10 {
			fail.add("session %s reached ε = %g, too close to the %d ceiling", name, st.RDPEpsilon, ceilingEps)
		}
	}
}
