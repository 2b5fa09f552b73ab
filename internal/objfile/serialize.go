package objfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// On-disk format for linked images. The layout is deliberately simple:
//
//	magic "EMX1" | entry u32
//	text:    count u32, words...
//	data:    count u32, bytes...
//	symbols: count u32, { name, section u8, offset u32, kind u8 }...
//	relocs:  count u32, { section u8, offset u32, kind u8, sym, addend i32 }...
//
// Strings are u16 length-prefixed. All integers are little-endian.

var imageMagic = [4]byte{'E', 'M', 'X', '1'}

// WriteTo serializes the image. A *bytes.Buffer destination is appended to
// directly with an exact presize (the daemon's pooled request scratch takes
// this path, making a warm serialization allocation-free); any other writer
// receives the whole image in a single Write, as before.
func (im *Image) WriteTo(w io.Writer) (int64, error) {
	if buf, ok := w.(*bytes.Buffer); ok {
		start := buf.Len()
		buf.Grow(im.serializedSize())
		im.appendTo(buf)
		return int64(buf.Len() - start), nil
	}
	var buf bytes.Buffer
	buf.Grow(im.serializedSize())
	im.appendTo(&buf)
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// serializedSize reports the exact byte length appendTo produces.
func (im *Image) serializedSize() int {
	n := len(imageMagic) + 4 + // magic, entry
		4 + 4*len(im.Text) +
		4 + len(im.Data) +
		4 + 4 + len(im.Meta) // symbol count, meta
	for _, s := range im.Symbols {
		n += 2 + min(len(s.Name), 0xFFFF) + 1 + 4 + 1
	}
	n += 4 // reloc count
	for _, r := range im.Relocs {
		n += 1 + 4 + 1 + 2 + min(len(r.Sym), 0xFFFF) + 4
	}
	return n
}

// appendTo writes the serialized image into buf.
func (im *Image) appendTo(buf *bytes.Buffer) {
	buf.Write(imageMagic[:])
	le := binary.LittleEndian
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); buf.Write(b[:]) }
	writeStr := func(s string) {
		if len(s) > 0xFFFF {
			s = s[:0xFFFF]
		}
		var b [2]byte
		le.PutUint16(b[:], uint16(len(s)))
		buf.Write(b[:])
		buf.WriteString(s)
	}
	writeU32(im.Entry)
	writeU32(uint32(len(im.Text)))
	for _, w := range im.Text {
		writeU32(w)
	}
	writeU32(uint32(len(im.Data)))
	buf.Write(im.Data)
	writeU32(uint32(len(im.Symbols)))
	for _, s := range im.Symbols {
		writeStr(s.Name)
		buf.WriteByte(byte(s.Section))
		writeU32(s.Offset)
		buf.WriteByte(byte(s.Kind))
	}
	writeU32(uint32(len(im.Relocs)))
	for _, r := range im.Relocs {
		buf.WriteByte(byte(r.Section))
		writeU32(r.Offset)
		buf.WriteByte(byte(r.Kind))
		writeStr(r.Sym)
		writeU32(uint32(r.Addend))
	}
	writeU32(uint32(len(im.Meta)))
	buf.Write(im.Meta)
}

// ReadImage deserializes an image written by WriteTo.
func ReadImage(r io.Reader) (*Image, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 || !bytes.Equal(data[:4], imageMagic[:]) {
		return nil, fmt.Errorf("objfile: bad magic; not an EM32 image")
	}
	pos := 4
	le := binary.LittleEndian
	readU32 := func() (uint32, error) {
		if pos+4 > len(data) {
			return 0, fmt.Errorf("objfile: truncated image at byte %d", pos)
		}
		v := le.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	readStr := func() (string, error) {
		if pos+2 > len(data) {
			return "", fmt.Errorf("objfile: truncated string at byte %d", pos)
		}
		n := int(le.Uint16(data[pos:]))
		pos += 2
		if pos+n > len(data) {
			return "", fmt.Errorf("objfile: truncated string body at byte %d", pos)
		}
		s := string(data[pos : pos+n])
		pos += n
		return s, nil
	}
	readByte := func() (byte, error) {
		if pos >= len(data) {
			return 0, fmt.Errorf("objfile: truncated image at byte %d", pos)
		}
		b := data[pos]
		pos++
		return b, nil
	}

	im := &Image{}
	if im.Entry, err = readU32(); err != nil {
		return nil, err
	}
	n, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(n) > (len(data)-pos)/isa.WordSize {
		return nil, fmt.Errorf("objfile: declared text size %d words exceeds file size", n)
	}
	im.Text = make([]uint32, n)
	for i := range im.Text {
		if im.Text[i], err = readU32(); err != nil {
			return nil, err
		}
	}
	if n, err = readU32(); err != nil {
		return nil, err
	}
	if int(n) > len(data)-pos {
		return nil, fmt.Errorf("objfile: declared data size %d exceeds file size", n)
	}
	im.Data = append([]byte(nil), data[pos:pos+int(n)]...)
	pos += int(n)

	if n, err = readU32(); err != nil {
		return nil, err
	}
	// A symbol takes at least 8 bytes and a relocation 12 (empty names),
	// so a count the rest of the file cannot hold is rejected before it
	// sizes an allocation.
	if int(n) > (len(data)-pos)/8 {
		return nil, fmt.Errorf("objfile: declared symbol count %d exceeds file size", n)
	}
	im.Symbols = make([]Symbol, 0, n)
	for i := uint32(0); i < n; i++ {
		var s Symbol
		if s.Name, err = readStr(); err != nil {
			return nil, err
		}
		sec, err := readByte()
		if err != nil {
			return nil, err
		}
		s.Section = Section(sec)
		if s.Offset, err = readU32(); err != nil {
			return nil, err
		}
		kind, err := readByte()
		if err != nil {
			return nil, err
		}
		s.Kind = SymKind(kind)
		im.Symbols = append(im.Symbols, s)
	}

	if n, err = readU32(); err != nil {
		return nil, err
	}
	if int(n) > (len(data)-pos)/12 {
		return nil, fmt.Errorf("objfile: declared relocation count %d exceeds file size", n)
	}
	im.Relocs = make([]Reloc, 0, n)
	for i := uint32(0); i < n; i++ {
		var rl Reloc
		sec, err := readByte()
		if err != nil {
			return nil, err
		}
		rl.Section = Section(sec)
		if rl.Offset, err = readU32(); err != nil {
			return nil, err
		}
		kind, err := readByte()
		if err != nil {
			return nil, err
		}
		rl.Kind = RelocKind(kind)
		if rl.Sym, err = readStr(); err != nil {
			return nil, err
		}
		a, err := readU32()
		if err != nil {
			return nil, err
		}
		rl.Addend = int32(a)
		im.Relocs = append(im.Relocs, rl)
	}
	if n, err = readU32(); err != nil {
		return nil, err
	}
	if int(n) > len(data)-pos {
		return nil, fmt.Errorf("objfile: declared meta size %d exceeds file size", n)
	}
	if n > 0 {
		im.Meta = append([]byte(nil), data[pos:pos+int(n)]...)
		pos += int(n)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("objfile: %d trailing bytes", len(data)-pos)
	}
	return im, nil
}

// On-disk format for relocatable objects ("EMO1"): like images but with
// unresolved relocations and no entry point.

var objectMagic = [4]byte{'E', 'M', 'O', '1'}

// WriteTo serializes the object.
func (o *Object) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(objectMagic[:])
	le := binary.LittleEndian
	writeU32 := func(v uint32) { var b [4]byte; le.PutUint32(b[:], v); buf.Write(b[:]) }
	writeStr := func(s string) {
		if len(s) > 0xFFFF {
			s = s[:0xFFFF]
		}
		var b [2]byte
		le.PutUint16(b[:], uint16(len(s)))
		buf.Write(b[:])
		buf.WriteString(s)
	}
	writeU32(uint32(len(o.Text)))
	for _, w := range o.Text {
		writeU32(w)
	}
	writeU32(uint32(len(o.Data)))
	buf.Write(o.Data)
	writeU32(uint32(len(o.Symbols)))
	for _, s := range o.Symbols {
		writeStr(s.Name)
		buf.WriteByte(byte(s.Section))
		writeU32(s.Offset)
		buf.WriteByte(byte(s.Kind))
	}
	writeU32(uint32(len(o.Relocs)))
	for _, r := range o.Relocs {
		buf.WriteByte(byte(r.Section))
		writeU32(r.Offset)
		buf.WriteByte(byte(r.Kind))
		writeStr(r.Sym)
		writeU32(uint32(r.Addend))
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadObject deserializes an object written by Object.WriteTo.
func ReadObject(r io.Reader) (*Object, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 || !bytes.Equal(data[:4], objectMagic[:]) {
		return nil, fmt.Errorf("objfile: bad magic; not an EM32 object")
	}
	pos := 4
	le := binary.LittleEndian
	readU32 := func() (uint32, error) {
		if pos+4 > len(data) {
			return 0, fmt.Errorf("objfile: truncated object at byte %d", pos)
		}
		v := le.Uint32(data[pos:])
		pos += 4
		return v, nil
	}
	readStr := func() (string, error) {
		if pos+2 > len(data) {
			return "", fmt.Errorf("objfile: truncated string at byte %d", pos)
		}
		n := int(le.Uint16(data[pos:]))
		pos += 2
		if pos+n > len(data) {
			return "", fmt.Errorf("objfile: truncated string body at byte %d", pos)
		}
		s := string(data[pos : pos+n])
		pos += n
		return s, nil
	}
	readByte := func() (byte, error) {
		if pos >= len(data) {
			return 0, fmt.Errorf("objfile: truncated object at byte %d", pos)
		}
		b := data[pos]
		pos++
		return b, nil
	}
	o := &Object{}
	n, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(n) > (len(data)-pos)/isa.WordSize {
		return nil, fmt.Errorf("objfile: declared text size %d words exceeds file size", n)
	}
	o.Text = make([]uint32, n)
	for i := range o.Text {
		if o.Text[i], err = readU32(); err != nil {
			return nil, err
		}
	}
	if n, err = readU32(); err != nil {
		return nil, err
	}
	if int(n) > len(data)-pos {
		return nil, fmt.Errorf("objfile: declared data size %d exceeds file size", n)
	}
	o.Data = append([]byte(nil), data[pos:pos+int(n)]...)
	pos += int(n)
	if n, err = readU32(); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		var s Symbol
		if s.Name, err = readStr(); err != nil {
			return nil, err
		}
		sec, err := readByte()
		if err != nil {
			return nil, err
		}
		s.Section = Section(sec)
		if s.Offset, err = readU32(); err != nil {
			return nil, err
		}
		kind, err := readByte()
		if err != nil {
			return nil, err
		}
		s.Kind = SymKind(kind)
		o.Symbols = append(o.Symbols, s)
	}
	if n, err = readU32(); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		var rl Reloc
		sec, err := readByte()
		if err != nil {
			return nil, err
		}
		rl.Section = Section(sec)
		if rl.Offset, err = readU32(); err != nil {
			return nil, err
		}
		kind, err := readByte()
		if err != nil {
			return nil, err
		}
		rl.Kind = RelocKind(kind)
		if rl.Sym, err = readStr(); err != nil {
			return nil, err
		}
		a, err := readU32()
		if err != nil {
			return nil, err
		}
		rl.Addend = int32(a)
		o.Relocs = append(o.Relocs, rl)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("objfile: %d trailing bytes", len(data)-pos)
	}
	return o, nil
}
