package obs

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseTraceHeader feeds ParseTraceHeader an X-Dac-Trace value, which
// any client may send. A rejected value yields the zero ID and no hop; an
// accepted one must survive FormatTraceHeader and a second parse unchanged.
func FuzzParseTraceHeader(f *testing.F) {
	const id = "000102030405060708090a0b0c0d0e0f"
	for _, seed := range []string{id, id + ";hop=a0", id + ";hop=a1", "", "xyz", "00112233", strings.Repeat("zz", 16)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		id, hop, err := ParseTraceHeader(v)
		if err != nil {
			if !id.IsZero() || hop != "" {
				t.Fatalf("rejected %q but returned (%v, %q)", v, id, hop)
			}
			return
		}
		again := FormatTraceHeader(id, hop)
		id2, hop2, err := ParseTraceHeader(again)
		if err != nil || id2 != id || hop2 != hop {
			t.Fatalf("%q parsed to (%v, %q), reformatted to %q, reparsed to (%v, %q, %v)", v, id, hop, again, id2, hop2, err)
		}
	})
}

// FuzzParseTimings feeds ParseTimings an X-Dac-Server-Timing value, which a
// replica sends the gateway. Whatever pairs it keeps must survive
// FormatTimings and a second parse unchanged.
func FuzzParseTimings(f *testing.F) {
	for _, seed := range []string{"queue=123,compute=4567,batch=4,total=5000", "queue=12,garbage,=5,x=notanum,compute=9", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		ts := ParseTimings(v)
		again := FormatTimings(ts)
		if got := ParseTimings(again); !slices.Equal(got, ts) {
			t.Fatalf("%q parsed to %+v, reformatted to %q, reparsed to %+v", v, ts, again, got)
		}
	})
}
