package main

import (
	"path/filepath"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E8"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-quick", "-run", "E6", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRPCSweepQuick(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-sweep", "rpc", "-quick", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	doc, err := loadDoc(filepath.Join(dir, "BENCH_rpc.json"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Meta.GOMAXPROCS < 2 || len(doc.Rows) == 0 {
		t.Fatalf("meta = %+v, %d rows", doc.Meta, len(doc.Rows))
	}
}

func TestRunUnknownSweep(t *testing.T) {
	if err := run([]string{"-sweep", "store,bogus", "-out", t.TempDir()}); err == nil {
		t.Fatal("unknown sweep accepted")
	}
}

func TestNewEngine(t *testing.T) {
	for _, name := range []string{"locked", "sharded"} {
		if _, err := newEngine(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := newEngine("bogus"); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

func TestRunContention(t *testing.T) {
	for _, engine := range []string{"locked", "sharded"} {
		res, err := runContention(contentionConfig{
			Engine:       engine,
			Objects:      64,
			Members:      32,
			Workers:      2,
			OpsPerWorker: 500,
			WriteEvery:   10,
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.TotalOps != 1000 || res.OpsPerSec <= 0 {
			t.Fatalf("%s: result = %+v", engine, res)
		}
		if len(res.PerOp) == 0 {
			t.Fatalf("%s: no per-op stats", engine)
		}
	}
}
