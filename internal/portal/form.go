package portal

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"strings"
)

// MaxRequestBytes bounds one upload request body: the executable's cap
// plus slack for the multipart envelope and the form fields. A request
// declaring more is answered 413 before a body byte is read.
const MaxRequestBytes = MaxUploadBytes + (1 << 20)

// presizeCap bounds what one body read reserves on the strength of a
// declared length alone: a client that declares a huge body and sends
// nothing costs the reader at most this much beyond what it received.
const presizeCap = 1 << 20

// The upload form's bounds mirror multipart.Reader.ReadForm's: at most
// maxFormParts parts, and non-file values (names included) within
// maxFormValueBytes all told.
const (
	maxFormParts      = 1000
	maxFormValueBytes = 10 << 20
)

// ErrTooLarge reports an upload over MaxUploadBytes (or a request
// declaring more than MaxRequestBytes); the portal answers it with 413.
var ErrTooLarge = errors.New("portal: file too large")

// ReadBody reads r to EOF into one buffer and returns it. declared is
// the body's declared length (-1 when unknown): the buffer is presized
// from it, capped at presizeCap, and past the cap grows as bytes arrive
// but never beyond the declared length, so a body that matches its
// declaration ends in a buffer of exactly that length (plus the one
// byte the final read needs to see EOF). More than limit bytes yield
// ErrTooLarge.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		size = min(declared+1, presizeCap)
	}
	buf := make([]byte, 0, min(size, limit+1))
	for {
		if len(buf) == cap(buf) {
			c := int64(2 * cap(buf))
			if declared >= int64(len(buf)) {
				c = min(c, declared+1)
			}
			buf = append(make([]byte, 0, min(c, limit+1)), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, ErrTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// UploadForm is one decoded "Upload file and generate Web Service"
// request.
type UploadForm struct {
	// Filename is the first "file" part's file name (base name only).
	Filename string
	// File is that part's bytes; nil when the walk was asked to discard
	// them.
	File []byte
	// Values holds the URL query values followed by every non-file
	// part, in order — the order r.FormValue consults them.
	Values url.Values
}

// Value returns the first value for key, as r.FormValue would.
func (f *UploadForm) Value(key string) string { return f.Values.Get(key) }

// ReadUploadForm walks a multipart/form-data upload body once, in the
// order it arrives. The first "file" part carrying a file name is the
// executable: kept (read into one buffer presized from declared, the
// request's declared length) when keepFile is set, counted and
// discarded otherwise. Later "file" parts and other file parts are
// skipped. Non-file parts become Values after the query's. It agrees
// with ParseMultipartForm + FormFile("file") + FormValue on every body
// those accept, without buffering the form or spilling it to disk.
//
// Errors carry the portal's messages: a malformed query, content type
// or body is "portal: parse form: ...", a form without a named file
// part is "portal: missing file: ...", and a file over MaxUploadBytes
// is ErrTooLarge.
func ReadUploadForm(contentType, rawQuery string, body io.Reader, declared int64, keepFile bool) (*UploadForm, error) {
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, parseFormError(err)
	}
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil || mediaType != "multipart/form-data" {
		return nil, parseFormError(http.ErrNotMultipart)
	}
	boundary, ok := params["boundary"]
	if !ok {
		return nil, parseFormError(http.ErrMissingBoundary)
	}
	form := &UploadForm{Values: values}
	mr := multipart.NewReader(body, boundary)
	budget := int64(maxFormValueBytes)
	for parts := 0; ; parts++ {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, parseFormError(err)
		}
		if parts == maxFormParts {
			return nil, parseFormError(multipart.ErrMessageTooLarge)
		}
		name := p.FormName()
		if name == "" {
			continue
		}
		filename := p.FileName()
		switch {
		case filename == "":
			budget -= int64(len(name))
			var v strings.Builder
			n, err := io.CopyN(&v, p, budget+1)
			if err != nil && err != io.EOF {
				return nil, parseFormError(err)
			}
			if budget -= n; budget < 0 {
				return nil, parseFormError(multipart.ErrMessageTooLarge)
			}
			form.Values[name] = append(form.Values[name], v.String())
		case name == "file" && form.Filename == "":
			form.Filename = filename
			if keepFile {
				form.File, err = ReadBody(p, declared, MaxUploadBytes)
			} else if _, err = io.CopyN(io.Discard, p, MaxUploadBytes+1); err == io.EOF {
				err = nil // the whole file fit
			} else if err == nil {
				err = ErrTooLarge // CopyN filled its limit
			}
			if errors.Is(err, ErrTooLarge) {
				return nil, err
			}
			if err != nil {
				return nil, parseFormError(err)
			}
		}
	}
	if form.Filename == "" {
		return nil, fmt.Errorf("portal: missing file: %w", http.ErrMissingFile)
	}
	return form, nil
}

func parseFormError(err error) error {
	return fmt.Errorf("portal: parse form: %w", err)
}
