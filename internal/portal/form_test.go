package portal

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// formPart is one multipart part: a file part when filename is set.
type formPart struct{ name, filename, value string }

// formBody builds a multipart body from parts written in order.
func formBody(t testing.TB, parts ...formPart) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		var w io.Writer
		var err error
		if p.filename != "" {
			w, err = mw.CreateFormFile(p.name, p.filename)
		} else {
			w, err = mw.CreateFormField(p.name)
		}
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(w, p.value)
	}
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

func readForm(t *testing.T, ct, query string, body []byte) (*UploadForm, error) {
	t.Helper()
	return ReadUploadForm(ct, query, bytes.NewReader(body), int64(len(body)), true)
}

func TestUploadFormFieldsAfterFile(t *testing.T) {
	ct, body := formBody(t,
		formPart{"file", "monte.gsh", "echo hi\n"},
		formPart{"user", "", "alice"},
		formPart{"paramName1", "", "x"},
		formPart{"paramType1", "", "int"},
	)
	f, err := readForm(t, ct, "", body)
	if err != nil {
		t.Fatal(err)
	}
	if f.Filename != "monte.gsh" || string(f.File) != "echo hi\n" {
		t.Fatalf("file %q %q", f.Filename, f.File)
	}
	if f.Value("user") != "alice" || f.Value("paramName1") != "x" || f.Value("paramType1") != "int" {
		t.Fatalf("values %v", f.Values)
	}
}

// Query values come first, as r.FormValue consults them.
func TestUploadFormQueryPrecedence(t *testing.T) {
	ct, body := formBody(t, formPart{"user", "", "alice"}, formPart{"file", "a.gsh", "echo\n"})
	f, err := readForm(t, ct, "user=bob&description=q", body)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Values["user"]; !reflect.DeepEqual(got, []string{"bob", "alice"}) {
		t.Fatalf("user values %q", got)
	}
	if f.Value("user") != "bob" || f.Value("description") != "q" {
		t.Fatalf("values %v", f.Values)
	}
	if _, err := readForm(t, ct, "a=%zz", body); err == nil || !strings.Contains(err.Error(), "parse form") {
		t.Fatalf("bad query: %v", err)
	}
}

func TestUploadFormSecondFilePartIgnored(t *testing.T) {
	ct, body := formBody(t,
		formPart{"file", "first.gsh", "echo 1\n"},
		formPart{"other", "side.bin", "ignored"},
		formPart{"file", "second.gsh", "echo 2\n"},
		formPart{"user", "", "alice"},
	)
	for _, keep := range []bool{true, false} {
		f, err := ReadUploadForm(ct, "", bytes.NewReader(body), -1, keep)
		if err != nil {
			t.Fatal(err)
		}
		if f.Filename != "first.gsh" || f.Value("user") != "alice" {
			t.Fatalf("keep=%v: %q %v", keep, f.Filename, f.Values)
		}
		if want := map[bool]string{true: "echo 1\n", false: ""}[keep]; string(f.File) != want {
			t.Fatalf("keep=%v: file %q", keep, f.File)
		}
		if _, ok := f.Values["file"]; ok {
			t.Fatal("a file part leaked into the values")
		}
	}
}

// A "file" part without a filename is a plain value, so the form has no
// file — exactly as FormFile("file") sees it.
func TestUploadFormFileWithoutFilenameIsMissing(t *testing.T) {
	f := newFixture(t)
	ct, body := formBody(t, formPart{"file", "", "echo hi\n"}, formPart{"user", "", "alice"})
	if _, err := readForm(t, ct, "", body); !errors.Is(err, http.ErrMissingFile) {
		t.Fatalf("walker: %v", err)
	}
	status, env := postForm(t, f.url+"/upload", ct, bytes.NewReader(body))
	if status != http.StatusBadRequest || env.Code != "bad_request" || !strings.Contains(env.Error, "missing file") {
		t.Fatalf("%d %+v", status, env)
	}
}

func TestUploadFormPartCountBound(t *testing.T) {
	parts := []formPart{{"file", "a.gsh", "echo\n"}}
	for len(parts) < maxFormParts {
		parts = append(parts, formPart{"f", "", "v"})
	}
	ct, body := formBody(t, parts...)
	if _, err := readForm(t, ct, "", body); err != nil {
		t.Fatalf("%d parts: %v", len(parts), err)
	}
	ct, body = formBody(t, append(parts, formPart{"f", "", "v"})...)
	if _, err := readForm(t, ct, "", body); !errors.Is(err, multipart.ErrMessageTooLarge) {
		t.Fatalf("%d parts: %v", len(parts)+1, err)
	}
	f := newFixture(t)
	if status, env := postForm(t, f.url+"/upload", ct, bytes.NewReader(body)); status != http.StatusBadRequest || env.Code != "bad_request" {
		t.Fatalf("%d %+v", status, env)
	}
}

func TestUploadFormValueBytesBound(t *testing.T) {
	big := strings.Repeat("v", maxFormValueBytes/2)
	ct, body := formBody(t, formPart{"file", "a.gsh", "echo\n"}, formPart{"a", "", big}, formPart{"b", "", big})
	if _, err := readForm(t, ct, "", body); !errors.Is(err, multipart.ErrMessageTooLarge) {
		t.Fatalf("got %v", err)
	}
}

// A chunked upload declares no length: the walker grows the file buffer
// past the presize cap as bytes arrive, and the service runs the whole
// program (its only statement is the last line).
func TestUploadChunkedBodyWithoutDeclaredLength(t *testing.T) {
	f := newFixture(t)
	program := strings.Repeat("# padding\n", 150_000) + "echo chunked=${x}\n"
	ct, body := formBody(t, formPart{"file", "chunky.gsh", program}, formPart{"user", "", "alice"},
		formPart{"paramName1", "", "x"}, formPart{"paramType1", "", "int"})
	req, err := http.NewRequest(http.MethodPost, f.url+"/upload", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	if req.ContentLength != 0 {
		t.Fatalf("request declares %d bytes", req.ContentLength)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d %s", resp.StatusCode, raw)
	}
	out, err := f.onserve.ExecuteAndWait("ChunkyService", map[string]string{"x": "7"})
	if err != nil || out != "chunked=7\n" {
		t.Fatalf("output %q err %v", out, err)
	}
}

// A request declaring more than MaxRequestBytes is the 413 envelope
// before a body byte is read.
func TestUploadOverCapDeclaredLength(t *testing.T) {
	f := newFixture(t)
	req := httptest.NewRequest(http.MethodPost, "/upload", strings.NewReader("tiny"))
	req.ContentLength = MaxRequestBytes + 1
	req.Header.Set("Content-Type", "multipart/form-data; boundary=x")
	rec := httptest.NewRecorder()
	f.portal.ServeHTTP(rec, req)
	var env errEnvelope
	json.Unmarshal(rec.Body.Bytes(), &env)
	if rec.Code != http.StatusRequestEntityTooLarge || env.Code != "too_large" {
		t.Fatalf("%d %s", rec.Code, rec.Body)
	}
}

func TestReadBodyPresizeAndLimit(t *testing.T) {
	// A declaration alone reserves at most presizeCap.
	got, err := ReadBody(strings.NewReader("0123456789"), 200<<20, 1<<30)
	if err != nil || string(got) != "0123456789" || cap(got) > presizeCap {
		t.Fatalf("got %q cap %d err %v", got, cap(got), err)
	}
	// A matching declaration ends exact: one buffer, one spare byte.
	for _, n := range []int{0, 1, 4096, presizeCap - 1, presizeCap + 12345} {
		src := bytes.Repeat([]byte{'z'}, n)
		got, err := ReadBody(bytes.NewReader(src), int64(n), 1<<30)
		if err != nil || !bytes.Equal(got, src) || cap(got) != n+1 {
			t.Fatalf("n=%d: len %d cap %d err %v", n, len(got), cap(got), err)
		}
	}
	// Unknown and understated lengths grow as bytes arrive.
	src := bytes.Repeat([]byte("ab"), 5000)
	for _, declared := range []int64{-1, 10} {
		if got, err := ReadBody(bytes.NewReader(src), declared, 1<<30); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("declared %d: len %d err %v", declared, len(got), err)
		}
	}
	// One byte past the limit is ErrTooLarge, whatever was declared.
	for _, declared := range []int64{-1, 10, 11} {
		if _, err := ReadBody(bytes.NewReader(src[:11]), declared, 10); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("declared %d: %v", declared, err)
		}
	}
	if got, err := ReadBody(bytes.NewReader(src[:10]), -1, 10); err != nil || len(got) != 10 {
		t.Fatalf("at the limit: %d %v", len(got), err)
	}
}

// FuzzUploadForm is differential: on any body the stdlib path
// (ParseMultipartForm + FormFile("file") + r.Form) accepts, the walker
// yields the same file bytes, filename and form values; no input
// panics either, and none yields a file over MaxUploadBytes.
func FuzzUploadForm(f *testing.F) {
	ct, body := formBody(f, formPart{"file", "monte.gsh", "echo hi\n"}, formPart{"user", "", "alice"})
	f.Add(ct, "", body)
	f.Add(ct, "user=bob", body)
	ct2, body2 := formBody(f, formPart{"user", "", "a"}, formPart{"file", "", "noname"},
		formPart{"file", "x/y.gsh", "one"}, formPart{"file", "z.gsh", "two"}, formPart{"", "", "anon"})
	f.Add(ct2, "a=1&a=2", body2)
	f.Add("multipart/form-data; boundary=x", "", []byte("--x\r\nContent-Disposition: form-data; name=\"file\"; filename=\"f\"\r\n\r\nabc\r\n--x--"))
	f.Add("multipart/mixed; boundary=x", "", []byte("--x--"))
	f.Add("text/plain", "%zz", []byte("junk"))
	f.Fuzz(func(t *testing.T, contentType, rawQuery string, body []byte) {
		got, err := ReadUploadForm(contentType, rawQuery, bytes.NewReader(body), int64(len(body)), true)
		if err == nil && len(got.File) > MaxUploadBytes {
			t.Fatalf("file of %d bytes", len(got.File))
		}
		want, ok := stdlibUploadForm(contentType, rawQuery, body)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("stdlib accepts, walker fails: %v", err)
		}
		if got.Filename != want.Filename || !bytes.Equal(got.File, want.File) {
			t.Fatalf("file %q %q, stdlib %q %q", got.Filename, got.File, want.Filename, want.File)
		}
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("values %v, stdlib %v", got.Values, want.Values)
		}
		discard, err := ReadUploadForm(contentType, rawQuery, bytes.NewReader(body), -1, false)
		if err != nil || discard.Filename != want.Filename || discard.File != nil || !reflect.DeepEqual(discard.Values, want.Values) {
			t.Fatalf("discarding walk differs: %+v %v", discard, err)
		}
	})
}

// stdlibUploadForm is the portal's former upload parse, kept as the
// fuzzer's oracle.
func stdlibUploadForm(contentType, rawQuery string, body []byte) (*UploadForm, bool) {
	r, err := http.NewRequest(http.MethodPost, "http://portal/upload", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	r.URL.RawQuery = rawQuery
	r.Header.Set("Content-Type", contentType)
	if err := r.ParseMultipartForm(32 << 20); err != nil {
		return nil, false
	}
	defer r.MultipartForm.RemoveAll()
	file, hdr, err := r.FormFile("file")
	if err != nil {
		return nil, false
	}
	defer file.Close()
	content, err := io.ReadAll(io.LimitReader(file, MaxUploadBytes+1))
	if err != nil || len(content) > MaxUploadBytes {
		return nil, false
	}
	return &UploadForm{Filename: hdr.Filename, File: content, Values: r.Form}, true
}

type errEnvelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func postForm(t *testing.T, url, ct string, body io.Reader) (int, errEnvelope) {
	t.Helper()
	resp, err := http.Post(url, ct, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env errEnvelope
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("status %d, body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, env
}
