//! Cursor-style little-endian field readers shared by the two framings
//! ([`crate::message`] and [`crate::wire`]). Every truncation is a typed
//! [`CoreError::CorruptPayload`], never a panic.

use ufc_core::CoreError;

pub(crate) fn corrupt(context: String) -> CoreError {
    CoreError::corrupt_payload("wire", 0, context)
}

pub(crate) fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], CoreError> {
    let end = *pos + N;
    let slice = bytes
        .get(*pos..end)
        .ok_or_else(|| corrupt(format!("payload truncated at byte {pos}")))?;
    *pos = end;
    <[u8; N]>::try_from(slice).map_err(|_| corrupt(format!("payload truncated at byte {pos}")))
}

pub(crate) fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<usize, CoreError> {
    Ok(u32::from_le_bytes(take::<4>(bytes, pos)?) as usize)
}

pub(crate) fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, CoreError> {
    Ok(u64::from_le_bytes(take::<8>(bytes, pos)?))
}

pub(crate) fn get_f64(bytes: &[u8], pos: &mut usize) -> Result<f64, CoreError> {
    Ok(f64::from_le_bytes(take::<8>(bytes, pos)?))
}
