//! JFIF marker framing: serializing a [`CoeffImage`] to a baseline JPEG
//! byte stream and parsing it back.
//!
//! The encoder emits SOI, APP0/JFIF, DQT, SOF0 (baseline sequential, 8-bit,
//! 4:4:4 or grayscale), DHT, SOS, entropy-coded data and EOI. The decoder
//! accepts the same subset, skipping unknown APPn/COM segments. Restart
//! markers, subsampling, progressive scans and arithmetic coding are out of
//! scope — none are needed by the evaluation, and 4:4:4 is required anyway
//! to keep ROI block grids aligned across components.

use crate::coeff::{CoeffImage, Component};
use crate::huffman::{
    decode_block_dc, decode_block_natural_into, encode_block_natural, encode_block_natural_masked,
    tally_block_natural_mask, BitReader, BitWriter, HuffDecoder, HuffEncoder, HuffTable,
    SymbolFreqs,
};
use crate::quant::QuantTable;
use crate::{JpegError, Result};

/// Huffman table strategy for encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HuffmanMode {
    /// The Annex K default tables. What a stock camera/encoder uses, and
    /// the setting under which PuPPIeS-B's ~10× blow-up appears.
    Standard,
    /// Per-image tables rebuilt from the actual (possibly perturbed)
    /// coefficient statistics — the PuPPIeS-C mechanism (§IV-B.3). This is
    /// the default because every libjpeg-based PSP pipeline enables
    /// `optimize_coding` for re-encodes.
    #[default]
    Optimized,
}

/// Options controlling [`encode`].
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct EncodeOptions {
    /// Huffman table strategy.
    pub huffman: HuffmanMode,
}

impl EncodeOptions {
    /// Options selecting the Annex K default tables.
    pub fn standard() -> Self {
        EncodeOptions {
            huffman: HuffmanMode::Standard,
        }
    }

    /// Options selecting per-image optimized tables.
    pub fn optimized() -> Self {
        EncodeOptions {
            huffman: HuffmanMode::Optimized,
        }
    }
}

// Marker bytes.
const SOI: u8 = 0xD8;
const EOI: u8 = 0xD9;
const SOF0: u8 = 0xC0;
const DHT: u8 = 0xC4;
const DQT: u8 = 0xDB;
const SOS: u8 = 0xDA;
const APP0: u8 = 0xE0;
const COM: u8 = 0xFE;

fn push_marker(out: &mut Vec<u8>, marker: u8) {
    out.push(0xFF);
    out.push(marker);
}

fn push_segment(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    push_marker(out, marker);
    let len = (payload.len() + 2) as u16;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(payload);
}

/// Encodes a coefficient image to a JFIF byte stream.
///
/// # Errors
/// Returns [`JpegError::CoefficientRange`] if a coefficient falls outside
/// `[-1024, 1023]`.
pub fn encode(img: &CoeffImage, opts: &EncodeOptions) -> Result<Vec<u8>> {
    let _span = puppies_obs::span("jpeg.encode", "jpeg");
    let comps = img.components();
    let ncomp = comps.len();

    // Choose Huffman tables. Table class 0 = DC, 1 = AC; id 0 = luma,
    // id 1 = chroma.
    let (dc_tables, ac_tables, masks) = match opts.huffman {
        HuffmanMode::Standard => (
            vec![HuffTable::std_dc_luma(), HuffTable::std_dc_chroma()],
            vec![HuffTable::std_ac_luma(), HuffTable::std_ac_chroma()],
            None,
        ),
        HuffmanMode::Optimized => {
            let _span = puppies_obs::span("jpeg.huffman_build", "jpeg");
            // The tally pass records each block's zigzag nonzero mask so
            // the emission pass below skips its own 64-lane rescan.
            let (dc, ac, masks) = build_optimized_tables(img);
            (dc, ac, Some(masks))
        }
    };

    let mut out = Vec::new();
    push_marker(&mut out, SOI);

    // APP0 / JFIF 1.1.
    let mut app0 = Vec::new();
    app0.extend_from_slice(b"JFIF\0");
    app0.extend_from_slice(&[1, 1, 0, 0, 1, 0, 1, 0, 0]);
    push_segment(&mut out, APP0, &app0);

    // DQT: one table per distinct component table (luma id 0, chroma id 1).
    let mut dqt = Vec::new();
    emit_quant_table(&mut dqt, 0, comps[0].quant());
    if ncomp == 3 {
        emit_quant_table(&mut dqt, 1, comps[1].quant());
    }
    push_segment(&mut out, DQT, &dqt);

    // SOF0.
    let mut sof = Vec::new();
    sof.push(8); // precision
    sof.extend_from_slice(&(img.height() as u16).to_be_bytes());
    sof.extend_from_slice(&(img.width() as u16).to_be_bytes());
    sof.push(ncomp as u8);
    for (i, c) in comps.iter().enumerate() {
        sof.push(c.id());
        sof.push(0x11); // 1x1 sampling (4:4:4)
        sof.push(if i == 0 { 0 } else { 1 }); // quant table id
    }
    push_segment(&mut out, SOF0, &sof);

    // DHT.
    let mut dht = Vec::new();
    for (id, t) in dc_tables.iter().enumerate().take(ncomp.min(2)) {
        emit_huff_table(&mut dht, 0, id as u8, t);
    }
    for (id, t) in ac_tables.iter().enumerate().take(ncomp.min(2)) {
        emit_huff_table(&mut dht, 1, id as u8, t);
    }
    push_segment(&mut out, DHT, &dht);

    // SOS.
    let mut sos = Vec::new();
    sos.push(ncomp as u8);
    for (i, c) in comps.iter().enumerate() {
        sos.push(c.id());
        let tid = if i == 0 { 0 } else { 1 };
        sos.push((tid << 4) | tid);
    }
    sos.extend_from_slice(&[0, 63, 0]); // Ss, Se, AhAl
    push_segment(&mut out, SOS, &sos);

    // Entropy-coded data, interleaved MCUs (one block per component at
    // 4:4:4).
    let _entropy_span = puppies_obs::span("jpeg.entropy_encode", "jpeg");
    let enc_dc: Vec<HuffEncoder> = dc_tables.iter().map(HuffEncoder::new).collect();
    let enc_ac: Vec<HuffEncoder> = ac_tables.iter().map(HuffEncoder::new).collect();
    let nblocks = comps[0].blocks().len();
    // ~8 entropy bytes per block is a comfortable overestimate for
    // photographic content; growing past it is still amortized.
    let mut w = BitWriter::with_capacity(nblocks * ncomp * 8);
    let mut pred = vec![0i32; ncomp];
    for i in 0..nblocks {
        for (ci, c) in comps.iter().enumerate() {
            let tid = if ci == 0 { 0 } else { 1 };
            let block = &c.blocks()[i];
            pred[ci] = if let Some(ms) = &masks {
                // Reuse the zigzag mask the tally pass computed for this
                // block (same scan order, same index).
                let m = ms[i * ncomp + ci];
                encode_block_natural_masked(&mut w, block, m, pred[ci], &enc_dc[tid], &enc_ac[tid])?
            } else {
                encode_block_natural(&mut w, block, pred[ci], &enc_dc[tid], &enc_ac[tid])?
            };
        }
    }
    out.extend_from_slice(&w.finish());
    push_marker(&mut out, EOI);
    Ok(out)
}

/// Builds optimized Huffman tables and returns each block's zigzag
/// nonzero mask in scan order (block, then component) so the emission
/// pass can skip recomputing them.
fn build_optimized_tables(img: &CoeffImage) -> (Vec<HuffTable>, Vec<HuffTable>, Vec<u64>) {
    let comps = img.components();
    let ncomp = comps.len();
    let nblocks = comps[0].blocks().len();
    let mut freqs: Vec<SymbolFreqs> = (0..ncomp.min(2)).map(|_| SymbolFreqs::new()).collect();
    let mut masks: Vec<u64> = Vec::with_capacity(nblocks * ncomp);
    let mut pred = vec![0i32; ncomp];
    for i in 0..nblocks {
        for (ci, c) in comps.iter().enumerate() {
            let tid = if ci == 0 { 0 } else { 1 };
            let (p, m) = tally_block_natural_mask(&mut freqs[tid], &c.blocks()[i], pred[ci]);
            pred[ci] = p;
            masks.push(m);
        }
    }
    let dc = freqs
        .iter()
        .map(|f| HuffTable::build_optimized(&f.dc))
        .collect();
    let ac = freqs
        .iter()
        .map(|f| HuffTable::build_optimized(&f.ac))
        .collect();
    (dc, ac, masks)
}

fn emit_quant_table(out: &mut Vec<u8>, id: u8, table: &QuantTable) {
    out.push(id); // Pq=0 (8-bit), Tq=id
    for i in 0..64 {
        let s = table.steps()[crate::zigzag::ZIGZAG[i]];
        out.push(s.min(255) as u8);
    }
}

fn emit_huff_table(out: &mut Vec<u8>, class: u8, id: u8, table: &HuffTable) {
    out.push((class << 4) | id);
    out.extend_from_slice(table.counts());
    out.extend_from_slice(table.values());
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

struct SofComponent {
    id: u8,
    quant_id: u8,
}

/// The luma DC coefficients of a stream, from the DC-only mode of the scan
/// decoder ([`decode_dc`]): what a reader of the public per-block
/// brightness needs, without the AC coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DcGrid {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Block columns.
    pub blocks_w: u32,
    /// Block rows.
    pub blocks_h: u32,
    /// The luma quantization step of the DC coefficient.
    pub dc_step: u16,
    /// Quantized luma DC of every block, row-major over the block grid.
    pub dc: Vec<i32>,
}

impl DcGrid {
    /// Block-grid coordinates of every block whose pixel footprint
    /// intersects `region`; as [`Component::blocks_in_region`].
    pub fn blocks_in_region(&self, region: puppies_image::Rect) -> Vec<(u32, u32)> {
        crate::coeff::blocks_in_region(self.width, self.height, region)
    }
}

/// Decodes a baseline JFIF byte stream into a [`CoeffImage`].
///
/// # Errors
/// Returns [`JpegError::Malformed`] for framing errors,
/// [`JpegError::Unsupported`] for features outside the baseline 4:4:4 /
/// grayscale subset, and [`JpegError::CoefficientRange`] for coefficients
/// the encoder could not write back.
pub fn decode(bytes: &[u8]) -> Result<CoeffImage> {
    let _span = puppies_obs::span("jpeg.decode", "jpeg");
    let frame = read_frame(bytes)?;
    let n = frame.comps.len();
    let scan = frame.scan()?;
    let mut blocks: Vec<Vec<[i32; 64]>> = vec![Vec::with_capacity(scan.nblocks); n];
    let mut blk = [0i32; 64]; // scratch reused across every block
    scan.run("jpeg.entropy_decode", |ci, r, pred, dct, act| {
        let p = decode_block_natural_into(&mut blk, r, pred, dct, act)?;
        blocks[ci].push(blk);
        Ok(p)
    })?;
    let quants = frame.quant_tables()?;
    let mut components = Vec::with_capacity(n);
    for ((sc, qt), b) in frame.comps.iter().zip(quants).zip(blocks) {
        components.push(Component::from_raw(
            sc.id,
            frame.width,
            frame.height,
            qt,
            b,
        )?);
    }
    CoeffImage::from_components(frame.width, frame.height, components)
}

/// The DC-only mode of the scan decoder: parses the same headers, walks
/// the same symbols with the same checks as [`decode`], but skips every AC
/// magnitude and keeps only the luma DCs. Returns `Ok` exactly when
/// [`decode`] does, and then the luma DC grid equals that of the decoded
/// image.
///
/// # Errors
/// As [`decode`].
pub fn decode_dc(bytes: &[u8]) -> Result<DcGrid> {
    let _span = puppies_obs::span("jpeg.decode_dc", "jpeg");
    let frame = read_frame(bytes)?;
    let scan = frame.scan()?;
    let mut dc = Vec::with_capacity(scan.nblocks);
    scan.run("jpeg.dc_walk", |ci, r, pred, dct, act| {
        let p = decode_block_dc(r, pred, dct, act)?;
        if ci == 0 {
            dc.push(p);
        }
        Ok(p)
    })?;
    let quants = frame.quant_tables()?;
    Ok(DcGrid {
        width: frame.width,
        height: frame.height,
        blocks_w: frame.width.div_ceil(crate::BLOCK_SIZE),
        blocks_h: frame.height.div_ceil(crate::BLOCK_SIZE),
        dc_step: quants[0].steps()[0],
        dc,
    })
}

/// Everything before the entropy-coded data: frame geometry, the tables,
/// and where the scan starts.
struct Frame<'a> {
    bytes: &'a [u8],
    width: u32,
    height: u32,
    comps: Vec<SofComponent>,
    quant_tables: Vec<Option<QuantTable>>,
    dc_tables: Vec<Option<HuffDecoder>>,
    ac_tables: Vec<Option<HuffDecoder>>,
    /// The SOS segment payload.
    sos: &'a [u8],
    /// Offset of the first entropy-coded byte.
    scan_start: usize,
}

/// A checked scan, ready to walk.
struct Scan<'a> {
    entropy: &'a [u8],
    /// Blocks per component.
    nblocks: usize,
    /// `(DC, AC)` decoder of each component, in frame order.
    tables: Vec<(&'a HuffDecoder, &'a HuffDecoder)>,
}

impl Scan<'_> {
    /// The scan walk both decode modes share: hands every block of every
    /// interleaved MCU, in stream order, to `block(component, reader,
    /// predictor, dc, ac)`, which decodes it and returns the new predictor.
    fn run(
        &self,
        span: &'static str,
        mut block: impl FnMut(usize, &mut BitReader<'_>, i32, &HuffDecoder, &HuffDecoder) -> Result<i32>,
    ) -> Result<()> {
        let _span = puppies_obs::span(span, "jpeg");
        let mut pred = vec![0i32; self.tables.len()];
        let mut r = BitReader::new(self.entropy);
        for _ in 0..self.nblocks {
            for (ci, &(dct, act)) in self.tables.iter().enumerate() {
                pred[ci] = block(ci, &mut r, pred[ci], dct, act)?;
            }
        }
        Ok(())
    }
}

/// Parses markers up to and including SOS.
fn read_frame(bytes: &[u8]) -> Result<Frame<'_>> {
    let mut pos = 0usize;
    let need = |pos: usize, n: usize| -> Result<()> {
        if pos + n > bytes.len() {
            Err(JpegError::Malformed("unexpected end of stream".into()))
        } else {
            Ok(())
        }
    };
    need(pos, 2)?;
    if bytes[0] != 0xFF || bytes[1] != SOI {
        return Err(JpegError::Malformed("missing SOI".into()));
    }
    pos += 2;

    let mut quant_tables: Vec<Option<QuantTable>> = vec![None; 4];
    let mut dc_tables: Vec<Option<HuffDecoder>> = vec![None, None, None, None];
    let mut ac_tables: Vec<Option<HuffDecoder>> = vec![None, None, None, None];
    let mut sof: Option<(u16, u16, Vec<SofComponent>)> = None;

    loop {
        need(pos, 2)?;
        if bytes[pos] != 0xFF {
            return Err(JpegError::Malformed(format!(
                "expected marker at {pos}, found {:#04x}",
                bytes[pos]
            )));
        }
        let marker = bytes[pos + 1];
        pos += 2;
        match marker {
            EOI => return Err(JpegError::Malformed("EOI before SOS".into())),
            0xC2 => return Err(JpegError::Unsupported("progressive JPEG".into())),
            0xC1 | 0xC3 | 0xC5..=0xC7 | 0xC9..=0xCB | 0xCD..=0xCF => {
                return Err(JpegError::Unsupported(format!("SOF marker {marker:#04x}")))
            }
            SOF0 => {
                let (seg, next) = read_segment(bytes, pos)?;
                pos = next;
                sof = Some(parse_sof(seg)?);
            }
            DQT => {
                let (seg, next) = read_segment(bytes, pos)?;
                pos = next;
                parse_dqt(seg, &mut quant_tables)?;
            }
            DHT => {
                let (seg, next) = read_segment(bytes, pos)?;
                pos = next;
                parse_dht(seg, &mut dc_tables, &mut ac_tables)?;
            }
            SOS => {
                let (seg, next) = read_segment(bytes, pos)?;
                let (w, h, comps) =
                    sof.ok_or_else(|| JpegError::Malformed("SOS before SOF".into()))?;
                return Ok(Frame {
                    bytes,
                    width: u32::from(w),
                    height: u32::from(h),
                    comps,
                    quant_tables,
                    dc_tables,
                    ac_tables,
                    sos: seg,
                    scan_start: next,
                });
            }
            0xDD => return Err(JpegError::Unsupported("restart intervals (DRI)".into())),
            // Skippable segments: APPn, COM.
            m if (0xE0..=0xEF).contains(&m) || m == COM => {
                let (_, next) = read_segment(bytes, pos)?;
                pos = next;
            }
            0xD0..=0xD7 | 0x01 => {} // standalone markers: skip
            other => {
                return Err(JpegError::Malformed(format!(
                    "unexpected marker {other:#04x}"
                )))
            }
        }
    }
}

impl Frame<'_> {
    /// Checks the SOS header against the frame, locates the entropy-coded
    /// data, bounds the declared geometry by its length and resolves each
    /// component's Huffman tables: everything before the first block.
    fn scan(&self) -> Result<Scan<'_>> {
        let (bytes, pos, sos) = (self.bytes, self.scan_start, self.sos);
        let n = self.comps.len();
        if sos.len() != 1 + 2 * n + 3 || sos[0] as usize != n {
            return Err(JpegError::Malformed("SOS header mismatch".into()));
        }
        // Table selectors per component.
        let mut sel = Vec::with_capacity(n);
        for i in 0..n {
            let cid = sos[1 + 2 * i];
            if cid != self.comps[i].id {
                return Err(JpegError::Malformed("SOS component order mismatch".into()));
            }
            let t = sos[2 + 2 * i];
            sel.push(((t >> 4) as usize, (t & 0x0F) as usize));
        }

        // Locate the end of entropy data (the next non-stuffed, non-RST
        // marker).
        let mut end = pos;
        while end + 1 < bytes.len() {
            if bytes[end] == 0xFF {
                let m = bytes[end + 1];
                if m != 0x00 && !(0xD0..=0xD7).contains(&m) {
                    break;
                }
                end += 2;
            } else {
                end += 1;
            }
        }
        let entropy = &bytes[pos..end];

        let nblocks = (self.width.div_ceil(8) as usize) * (self.height.div_ceil(8) as usize);
        // Guard against lying SOF dimensions before allocating: every block
        // costs at least 2 entropy bits (shortest DC code + EOB), so the
        // declared geometry cannot exceed 4 blocks per entropy byte.
        if nblocks * n > entropy.len().saturating_mul(4).max(4) {
            return Err(JpegError::Malformed(format!(
                "{nblocks} declared blocks cannot fit in {} entropy bytes",
                entropy.len()
            )));
        }
        // Resolve each component's tables once, not once per block.
        let mut tables: Vec<(&HuffDecoder, &HuffDecoder)> = Vec::with_capacity(n);
        for &(dci, aci) in &sel {
            let dct = self
                .dc_tables
                .get(dci)
                .and_then(|t| t.as_ref())
                .ok_or_else(|| JpegError::Malformed("missing DC table".into()))?;
            let act = self
                .ac_tables
                .get(aci)
                .and_then(|t| t.as_ref())
                .ok_or_else(|| JpegError::Malformed("missing AC table".into()))?;
            tables.push((dct, act));
        }
        Ok(Scan {
            entropy,
            nblocks,
            tables,
        })
    }

    /// Each component's quantization table, in frame order.
    fn quant_tables(&self) -> Result<Vec<QuantTable>> {
        self.comps
            .iter()
            .map(|sc| {
                self.quant_tables
                    .get(sc.quant_id as usize)
                    .and_then(|t| t.clone())
                    .ok_or_else(|| JpegError::Malformed("missing quant table".into()))
            })
            .collect()
    }
}

fn read_segment(bytes: &[u8], pos: usize) -> Result<(&[u8], usize)> {
    if pos + 2 > bytes.len() {
        return Err(JpegError::Malformed("truncated segment length".into()));
    }
    let len = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]) as usize;
    if len < 2 || pos + len > bytes.len() {
        return Err(JpegError::Malformed("bad segment length".into()));
    }
    Ok((&bytes[pos + 2..pos + len], pos + len))
}

fn parse_sof(seg: &[u8]) -> Result<(u16, u16, Vec<SofComponent>)> {
    if seg.len() < 6 {
        return Err(JpegError::Malformed("short SOF".into()));
    }
    if seg[0] != 8 {
        return Err(JpegError::Unsupported(format!("{}-bit precision", seg[0])));
    }
    let h = u16::from_be_bytes([seg[1], seg[2]]);
    let w = u16::from_be_bytes([seg[3], seg[4]]);
    if w == 0 || h == 0 {
        return Err(JpegError::Malformed("zero dimensions".into()));
    }
    let n = seg[5] as usize;
    if n != 1 && n != 3 {
        return Err(JpegError::Unsupported(format!("{n} components")));
    }
    if seg.len() != 6 + 3 * n {
        return Err(JpegError::Malformed("SOF length mismatch".into()));
    }
    let mut comps = Vec::with_capacity(n);
    for i in 0..n {
        let id = seg[6 + 3 * i];
        let sampling = seg[7 + 3 * i];
        if sampling != 0x11 {
            return Err(JpegError::Unsupported(format!(
                "chroma subsampling {sampling:#04x} (only 4:4:4)"
            )));
        }
        comps.push(SofComponent {
            id,
            quant_id: seg[8 + 3 * i],
        });
    }
    Ok((w, h, comps))
}

fn parse_dqt(mut seg: &[u8], tables: &mut [Option<QuantTable>]) -> Result<()> {
    while !seg.is_empty() {
        let pq_tq = seg[0];
        let (pq, tq) = (pq_tq >> 4, (pq_tq & 0x0F) as usize);
        if pq != 0 {
            return Err(JpegError::Unsupported("16-bit quant table".into()));
        }
        if tq >= 4 || seg.len() < 65 {
            return Err(JpegError::Malformed("bad DQT".into()));
        }
        let mut steps = [1u16; 64];
        for i in 0..64 {
            let v = seg[1 + i] as u16;
            if v == 0 {
                return Err(JpegError::Malformed("zero quant step".into()));
            }
            steps[crate::zigzag::ZIGZAG[i]] = v;
        }
        tables[tq] = Some(QuantTable::new(steps));
        seg = &seg[65..];
    }
    Ok(())
}

fn parse_dht(
    mut seg: &[u8],
    dc: &mut [Option<HuffDecoder>],
    ac: &mut [Option<HuffDecoder>],
) -> Result<()> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(JpegError::Malformed("short DHT".into()));
        }
        let tc_th = seg[0];
        let (class, id) = (tc_th >> 4, (tc_th & 0x0F) as usize);
        if class > 1 || id >= 4 {
            return Err(JpegError::Malformed("bad DHT header".into()));
        }
        let mut counts = [0u8; 16];
        counts.copy_from_slice(&seg[1..17]);
        let total: usize = counts.iter().map(|&c| c as usize).sum();
        if seg.len() < 17 + total {
            return Err(JpegError::Malformed("DHT values truncated".into()));
        }
        let values = seg[17..17 + total].to_vec();
        let table = HuffTable::new(counts, values)?;
        let dec = HuffDecoder::new(&table);
        if class == 0 {
            dc[id] = Some(dec);
        } else {
            ac[id] = Some(dec);
        }
        seg = &seg[17 + total..];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_image::{Rgb, RgbImage};

    fn test_image(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new(
                ((x * 7 + y * 3) % 256) as u8,
                ((x + y * 11) % 256) as u8,
                ((x * 2 + y * y / 3) % 256) as u8,
            )
        })
    }

    #[test]
    fn encode_decode_roundtrip_exact_coefficients() {
        let img = test_image(48, 33);
        let c = CoeffImage::from_rgb(&img, 80);
        for opts in [EncodeOptions::standard(), EncodeOptions::optimized()] {
            let bytes = c.encode(&opts).unwrap();
            let back = CoeffImage::decode(&bytes).unwrap();
            assert_eq!(back.width(), 48);
            assert_eq!(back.height(), 33);
            for (a, b) in c.components().iter().zip(back.components()) {
                assert_eq!(a.blocks(), b.blocks(), "coefficients must survive framing");
                assert_eq!(a.quant(), b.quant());
            }
        }
    }

    #[test]
    fn gray_roundtrip() {
        let img = test_image(24, 24).to_gray();
        let c = CoeffImage::from_gray(&img, 70);
        let bytes = c.encode(&EncodeOptions::default()).unwrap();
        let back = CoeffImage::decode(&bytes).unwrap();
        assert!(back.is_gray());
        assert_eq!(c.components()[0].blocks(), back.components()[0].blocks());
    }

    #[test]
    fn stream_starts_with_soi_ends_with_eoi() {
        let img = test_image(16, 16);
        let bytes = crate::encode_rgb(&img, 75).unwrap();
        assert_eq!(&bytes[..2], &[0xFF, 0xD8]);
        assert_eq!(&bytes[bytes.len() - 2..], &[0xFF, 0xD9]);
        // JFIF APP0 present.
        assert_eq!(&bytes[2..4], &[0xFF, 0xE0]);
        assert_eq!(&bytes[6..11], b"JFIF\0");
    }

    #[test]
    fn optimized_tables_never_larger_much() {
        // Optimized Huffman coding should not be significantly worse than
        // the default tables for a natural-ish image.
        let img = test_image(96, 96);
        let c = CoeffImage::from_rgb(&img, 75);
        let std = c.encode(&EncodeOptions::standard()).unwrap().len();
        let opt = c.encode(&EncodeOptions::optimized()).unwrap().len();
        assert!(
            (opt as f64) < std as f64 * 1.05,
            "optimized {opt} vs standard {std}"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CoeffImage::decode(&[0, 1, 2, 3]).is_err());
        assert!(CoeffImage::decode(&[0xFF, 0xD8, 0xFF, 0xD9]).is_err());
        assert!(CoeffImage::decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_progressive_sof() {
        let img = test_image(16, 16);
        let mut bytes = crate::encode_rgb(&img, 75).unwrap();
        // Find the SOF0 marker and rewrite it to SOF2 (progressive).
        for i in 0..bytes.len() - 1 {
            if bytes[i] == 0xFF && bytes[i + 1] == 0xC0 {
                bytes[i + 1] = 0xC2;
                break;
            }
        }
        assert!(matches!(
            CoeffImage::decode(&bytes),
            Err(JpegError::Unsupported(_))
        ));
    }

    #[test]
    fn decode_skips_comment_segments() {
        let img = test_image(16, 16);
        let bytes = crate::encode_rgb(&img, 75).unwrap();
        // Splice a COM segment right after SOI.
        let mut patched = bytes[..2].to_vec();
        patched.extend_from_slice(&[0xFF, 0xFE, 0x00, 0x07, b'h', b'e', b'l', b'l', b'o']);
        patched.extend_from_slice(&bytes[2..]);
        let back = CoeffImage::decode(&patched).unwrap();
        assert_eq!(back.width(), 16);
    }

    #[test]
    fn truncated_stream_is_detected() {
        let img = test_image(32, 32);
        let bytes = crate::encode_rgb(&img, 75).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        assert!(CoeffImage::decode(cut).is_err());
    }

    #[test]
    fn pixel_roundtrip_through_bytes() {
        let img = test_image(40, 28);
        let bytes = crate::encode_rgb(&img, 90).unwrap();
        let back = crate::decode_rgb(&bytes).unwrap();
        let psnr = puppies_image::metrics::psnr_rgb(&img, &back);
        assert!(psnr > 30.0, "PSNR {psnr}");
    }

    #[test]
    fn higher_quality_produces_larger_files() {
        let img = test_image(64, 64);
        let small = crate::encode_rgb(&img, 30).unwrap().len();
        let large = crate::encode_rgb(&img, 95).unwrap().len();
        assert!(large > small, "{large} <= {small}");
    }

    /// Offset and length of the first DHT segment's payload.
    fn dht_payload(bytes: &[u8]) -> (usize, usize) {
        let at = bytes
            .windows(2)
            .position(|m| m == [0xFF, DHT])
            .expect("stream has a DHT segment");
        let len = u16::from_be_bytes([bytes[at + 2], bytes[at + 3]]) as usize;
        (at + 4, len - 2)
    }

    #[test]
    fn accepted_dht_mutations_reencode() {
        // Every single-byte mutation of the DHT segment: whatever the
        // decoder accepts, the encoder must be able to write back, so a
        // table that decodes a DC outside [-1024, 1023] or an AC of
        // category 11 or more must be rejected, in both decode modes.
        let bytes = crate::encode_rgb(&test_image(64, 48), 75).unwrap();
        let (start, len) = dht_payload(&bytes);
        let (mut accepted, mut range_errors) = (0, 0);
        for pos in start..start + len {
            for v in 0..=255u8 {
                let mut m = bytes.clone();
                m[pos] = v;
                let full = decode(&m);
                assert_eq!(full.is_ok(), decode_dc(&m).is_ok(), "byte {pos} = {v:#04x}");
                match full {
                    Ok(img) => {
                        accepted += 1;
                        if let Err(e) = img.encode(&EncodeOptions::default()) {
                            panic!("byte {pos} = {v:#04x}: accepted but not re-encodable: {e}");
                        }
                    }
                    Err(JpegError::CoefficientRange { .. }) => range_errors += 1,
                    Err(_) => {}
                }
            }
        }
        assert!(
            accepted > 0 && range_errors > 0,
            "{accepted} accepted, {range_errors} out of range"
        );
    }

    #[test]
    fn dc_walk_matches_full_decode() {
        for (w, h) in [(1, 1), (17, 9), (48, 33)] {
            let img = test_image(w, h);
            for c in [
                CoeffImage::from_rgb(&img, 80),
                CoeffImage::from_gray(&img.to_gray(), 60),
            ] {
                for opts in [EncodeOptions::standard(), EncodeOptions::optimized()] {
                    let bytes = c.encode(&opts).unwrap();
                    assert_eq!(decode_dc(&bytes).unwrap(), c.dc_grid(), "{w}x{h}");
                }
            }
        }
    }
}
