package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// maxPrefixes bounds how many prefix bytes Decode will consume, mirroring the
// x86 rule that caps legacy prefixes per instruction.
const maxPrefixes = 4

// MaxInstLen bounds the bytes Decode reads from an offset: the prefixes, the
// opcode and seven operand bytes. Whether and how the bytes at an offset
// decode depends on nothing past this window.
const MaxInstLen = maxPrefixes + 8

// Encoding errors.
var (
	ErrTruncated = errors.New("isa: truncated instruction")
	ErrBadOpcode = errors.New("isa: undefined opcode")
	ErrBadImm    = errors.New("isa: immediate does not fit in 32 bits")
	ErrBadReg    = errors.New("isa: register out of range")
)

// Encode appends the binary encoding of in to dst and returns the extended
// slice. It validates register numbers and the immediate range.
func Encode(dst []byte, in Inst) ([]byte, error) {
	info, ok := opTable[in.Op]
	if !ok {
		return dst, fmt.Errorf("%w: %#02x", ErrBadOpcode, uint8(in.Op))
	}
	if in.Rd >= NumArchRegs || in.Ra >= NumArchRegs || in.Rb >= NumArchRegs {
		return dst, fmt.Errorf("%w: %v", ErrBadReg, in)
	}
	if in.Imm < -1<<31 || in.Imm > 1<<31-1 {
		return dst, fmt.Errorf("%w: %d", ErrBadImm, in.Imm)
	}
	if in.Secure {
		dst = append(dst, SecPrefix)
	}
	dst = append(dst, byte(in.Op))
	if info.short {
		return dst, nil
	}
	dst = append(dst, byte(in.Rd), byte(in.Ra), byte(in.Rb))
	var imm [4]byte
	binary.LittleEndian.PutUint32(imm[:], uint32(int32(in.Imm)))
	return append(dst, imm[:]...), nil
}

// MustEncode is Encode but panics on error; for use with known-good
// compiler-generated instructions.
func MustEncode(dst []byte, in Inst) []byte {
	out, err := Encode(dst, in)
	if err != nil {
		panic(err)
	}
	return out
}

// Decode decodes one instruction starting at code[off]. It returns the
// instruction and its encoded size in bytes. SecPrefix bytes are consumed and
// recorded in Inst.Secure; a core that does not implement SeMPE simply
// ignores the flag, which is what makes SeMPE binaries backward compatible.
func Decode(code []byte, off int) (Inst, int, error) {
	var in Inst
	start := off
	for n := 0; ; n++ {
		if off >= len(code) {
			return in, 0, ErrTruncated
		}
		if code[off] != SecPrefix {
			break
		}
		if n >= maxPrefixes {
			return in, 0, fmt.Errorf("%w: too many prefixes", ErrBadOpcode)
		}
		in.Secure = true
		off++
	}
	op := Op(code[off])
	if !opValid[op] {
		return in, 0, fmt.Errorf("%w: %#02x at offset %d", ErrBadOpcode, code[off], off)
	}
	info := opInfos[op]
	in.Op = op
	off++
	if info.short {
		return in, off - start, nil
	}
	if off+7 > len(code) {
		return in, 0, ErrTruncated
	}
	in.Rd = Reg(code[off])
	in.Ra = Reg(code[off+1])
	in.Rb = Reg(code[off+2])
	if in.Rd >= NumArchRegs || in.Ra >= NumArchRegs || in.Rb >= NumArchRegs {
		return in, 0, fmt.Errorf("%w at offset %d", ErrBadReg, off)
	}
	in.Imm = int64(int32(binary.LittleEndian.Uint32(code[off+3:])))
	return in, off + 7 - start, nil
}
