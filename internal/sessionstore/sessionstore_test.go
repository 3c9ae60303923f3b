package sessionstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSessionStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), DeriveKey([]byte("test key material")))
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("serialized session bytes, including raw private scalars")
	if err := st.Save("client-7", pt); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("client-7")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: %q != %q", got, pt)
	}
	// Overwrite is atomic and replaces the record.
	if err := st.Save("client-7", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Load("client-7"); string(got) != "v2" {
		t.Fatalf("overwrite not visible: %q", got)
	}
}

func TestSessionStoreMissing(t *testing.T) {
	st, err := Open(t.TempDir(), DeriveKey([]byte("k")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestSessionStoreAuthBinding(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, DeriveKey([]byte("k")))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("client-1", []byte("secret")); err != nil {
		t.Fatal(err)
	}

	// Wrong store key fails authentication.
	other, _ := Open(dir, DeriveKey([]byte("different")))
	if _, err := other.Load("client-1"); err == nil {
		t.Fatal("load under the wrong key succeeded")
	}

	// A record copied under another name fails: the AD binds the name.
	raw, err := os.ReadFile(filepath.Join(dir, "client-1.sess"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "client-2.sess"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("client-2"); err == nil {
		t.Fatal("load of a renamed record succeeded")
	}

	// A flipped ciphertext bit fails.
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(filepath.Join(dir, "client-1.sess"), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("client-1"); err == nil {
		t.Fatal("load of a tampered record succeeded")
	}
}

func TestSessionStoreNameValidation(t *testing.T) {
	st, err := Open(t.TempDir(), DeriveKey([]byte("k")))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", "../escape", "a b", string([]byte{0})} {
		if err := st.Save(bad, []byte("x")); err == nil {
			t.Fatalf("saved under bad name %q", bad)
		}
		if _, err := st.Load(bad); err == nil {
			t.Fatalf("loaded under bad name %q", bad)
		}
	}
}
