package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/network"
)

var update = flag.Bool("update", false, "rewrite reference.json from the storeless serial sweep")

// TestReference renders the sweep with the plain storeless serial
// exp.Runner (its zero value) and compares it with reference.json, the
// digests every sweep pass is checked against. Run it with -update to
// regenerate the file after a deliberate change of the model or tables.
func TestReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole sweep serially")
	}
	specs, err := buildSpecs(network.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var r exp.Runner
	if err := r.Run(context.Background(), specs...); err != nil {
		t.Fatal(err)
	}
	got, err := referenceOf(specs)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("storeless serial sweep differs from reference.json:\n got %+v\nwant %+v", got, want)
	}
}
