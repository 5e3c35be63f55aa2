package scenario

import "testing"

// FuzzUnmarshal feeds arbitrary bytes to the v2 decoder. None may panic;
// an accepted spec must survive a Marshal/Unmarshal round trip with its
// fingerprint intact, and fingerprint like its defaulted twin. The seed
// corpus under testdata/fuzz/FuzzUnmarshal holds the three golden preset
// files and a legacy v1 file (which the decoder refuses).
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Unmarshal(data)
		if err != nil {
			return
		}
		fp := spec.Fingerprint()
		out, err := Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not re-marshal: %v\n%s", err, data)
		}
		back, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-marshalled spec refused: %v\n%s", err, out)
		}
		if back.Fingerprint() != fp {
			t.Fatalf("fingerprint drifted across a round trip\nin:\n%s\nout:\n%s", data, out)
		}
		if spec.WithDefaults().Fingerprint() != fp {
			t.Fatalf("spec and its defaulted twin fingerprint differently\n%s", data)
		}
	})
}
