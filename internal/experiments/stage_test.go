package experiments

import "testing"

func TestAblationStageShape(t *testing.T) {
	res, err := AblationStage(fastOpts(), 256)
	if err != nil {
		t.Fatal(err)
	}
	vals := ablationMap(res)

	// The stock monolithic PUT never touches the chunk protocol.
	for _, key := range []string{
		"stage-cold/stock/chunks_shipped", "stage-cold/stock/chunks_deduped",
		"stage-republish/stock/chunks_shipped", "stage-republish/stock/chunks_deduped",
	} {
		if vals[key] != 0 {
			t.Fatalf("%s = %v, want 0", key, vals[key])
		}
	}

	// The in-place edit dirties exactly one chunk: raw chunking re-ships
	// it and dedups every other chunk of the cold upload.
	cold := vals["stage-cold/chunked/chunks_shipped"]
	if cold < 2 {
		t.Fatalf("chunked cold shipped %v chunks, want the whole file", cold)
	}
	if got := vals["stage-republish/chunked/chunks_shipped"]; got != 1 {
		t.Fatalf("chunked re-publish shipped %v chunks, want 1", got)
	}
	if got := vals["stage-republish/chunked/chunks_deduped"]; got != cold-1 {
		t.Fatalf("chunked re-publish deduped %v chunks, want %v", got, cold-1)
	}

	// Shipping the stored gzip stream costs fewer cold payload bytes.
	if gz, raw := vals["stage-cold/chunked-gzip/chunk_wire_b"], vals["stage-cold/chunked/chunk_wire_b"]; gz <= 0 || gz >= raw {
		t.Fatalf("chunked-gzip cold chunk_wire_b %v, want below chunked's %v", gz, raw)
	}

	// Resume after a mid-transfer fault: committed chunks are not
	// re-shipped, the stock PUT restarts from byte zero.
	if ch, st := vals["stage-resume/chunked/retry_wire_b"], vals["stage-resume/stock/retry_wire_b"]; ch >= st {
		t.Fatalf("chunked retry shipped %v bytes, want below stock's %v", ch, st)
	}
}
